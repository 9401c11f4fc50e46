//! Differential property suite for the plan-level optimizer: on random
//! GODDAGs, random paths with mixed positional / position-free predicates
//! must produce **identical node sets (document order included)** with the
//! optimizer on and off, through both the XPath and the XQuery front ends.
//! The as-written plan is the reference oracle for every rewrite
//! (predicate reordering, `//x` fusion, set-at-a-time batch routing), and
//! the served XPath answers must equal the naive reference interpreter's.
//!
//! The second half pins positional semantics with hand-computed answers:
//! the optimizer must never reorder across a positional predicate, and a
//! positional predicate applied *before* a structural one is a different
//! query than the reverse order.

use multihier_xquery::corpus::{generate, GeneratorConfig};
use multihier_xquery::goddag::{Goddag, NodeId, StructIndex};
use multihier_xquery::prelude::*;
use multihier_xquery::xpath::{parse, Value};
use multihier_xquery::xquery::CompiledXQuery;
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        0u32..500,
        (60usize..240),
        (1usize..4),
        (5usize..25),
        (0usize..=10),
        prop_oneof![Just(true), Just(false)],
    )
        .prop_map(|(seed, text_len, hierarchies, avg_element_len, jitter, nested)| {
            GeneratorConfig {
                seed: seed as u64,
                text_len,
                hierarchies,
                avg_element_len,
                boundary_jitter: jitter as f64 / 10.0,
                nested,
            }
        })
}

/// Predicates spanning every optimizer class: positional (numeric,
/// `position()`, `last()`), position-free structural (extended-axis
/// subqueries, attribute and child tests), and position-free value tests.
fn arb_predicate() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        // positional
        Just("1"),
        Just("2"),
        Just("position() = 2"),
        Just("position() < last()"),
        Just("last()"),
        Just("count(child::node()) + 1"),
        // position-free, cheap
        Just("@n"),
        Just("child::s0"),
        Just("string-length(string(.)) > 4"),
        Just("contains(string(.), 'a')"),
        // position-free, extended-axis (expensive: reorder targets)
        Just("xancestor::e0"),
        Just("xfollowing::e1"),
        Just("xdescendant::e1"),
        Just("overlapping::e0"),
        Just("xancestor::e0[1]"),
    ]
}

fn arb_step() -> impl Strategy<Value = String> {
    let axis = prop_oneof![
        Just("descendant"),
        Just("descendant-or-self"),
        Just("child"),
        Just("xfollowing"),
        Just("xpreceding"),
        Just("xdescendant"),
        Just("xancestor"),
        Just("overlapping"),
        Just("following"),
        Just("ancestor"),
    ];
    let test = prop_oneof![
        Just("e0".to_string()),
        Just("e1".to_string()),
        Just("s0".to_string()),
        Just("*".to_string()),
        Just("node()".to_string()),
        Just("leaf()".to_string()),
    ];
    let preds = proptest::collection::vec(arb_predicate(), 0..3);
    (axis, test, preds).prop_map(|(a, t, ps)| {
        let preds: String = ps.iter().map(|p| format!("[{p}]")).collect();
        format!("{a}::{t}{preds}")
    })
}

/// Paths mixing explicit steps with `//` abbreviations (the fusion
/// target); always absolute so both front ends start from the root.
fn arb_path() -> impl Strategy<Value = String> {
    let joiner = prop_oneof![Just("/"), Just("//")];
    (proptest::collection::vec(arb_step(), 1..4), proptest::collection::vec(joiner, 0..3)).prop_map(
        |(steps, joiners)| {
            let mut out = String::new();
            for (i, s) in steps.iter().enumerate() {
                let sep = if i == 0 { "/" } else { *joiners.get(i - 1).unwrap_or(&"/") };
                out.push_str(sep);
                out.push_str(s);
            }
            out
        },
    )
}

/// Boolean single-step extended-axis predicates — the existential
/// early-exit (first-witness probe) targets.
fn arb_boolean_axis_predicate() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("xancestor::e0"),
        Just("xfollowing::e1"),
        Just("xpreceding::e0"),
        Just("xdescendant::e1"),
        Just("overlapping::e0"),
        Just("preceding-overlapping::e1"),
        Just("following-overlapping::e0"),
        // Near-misses the optimizer must leave alone, mixed in so the
        // annotated and unannotated paths interleave on one step.
        Just("count(xfollowing::e1)"),
        Just("xancestor::e0[1]"),
        Just("2"),
    ]
}

/// `//a//b`-shaped chains (the chain-join target) with predicate lists
/// biased toward boolean axis predicates on the inner step.
fn arb_chain_path() -> impl Strategy<Value = String> {
    let name = prop_oneof![Just("e0"), Just("e1"), Just("s0")];
    (name.clone(), name, proptest::collection::vec(arb_boolean_axis_predicate(), 0..3)).prop_map(
        |(a, b, ps)| {
            let preds: String = ps.iter().map(|p| format!("[{p}]")).collect();
            format!("//{a}//{b}{preds}")
        },
    )
}

/// Compile an XPath text the way the catalog does: parse, lower, optimize.
fn xpath_plan(src: &str) -> CompiledXQuery {
    CompiledXQuery::from_xpath(src.to_string(), &parse(src).unwrap())
}

/// Run a compiled XPath plan with the knob set, returning the node set and
/// the evaluation's step counters.
fn xpath_run(
    g: &Goddag,
    idx: &StructIndex,
    plan: &CompiledXQuery,
    optimize: bool,
) -> (Vec<NodeId>, EvalStats) {
    let opts = EvalOptions { optimize, ..Default::default() };
    let run = plan.run(g, Some(idx), &opts).unwrap();
    let nodes = run.items.iter().map(|i| i.as_goddag_node().expect("a node-set")).collect();
    (nodes, run.stats)
}

fn xpath_nodes(
    g: &Goddag,
    idx: &StructIndex,
    plan: &CompiledXQuery,
    optimize: bool,
) -> Vec<NodeId> {
    xpath_run(g, idx, plan, optimize).0
}

fn xquery_trace(g: &Goddag, path: &str, optimize: bool) -> String {
    let q = format!("for $n in {path} return concat(name($n), ':', string($n), '\u{1}')");
    let opts = EvalOptions { optimize, ..Default::default() };
    run_query_with(g, &q, &opts).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Optimized == unoptimized node sets (order included) for random
    /// predicate-heavy paths, through both front ends.
    #[test]
    fn optimizer_is_invisible_in_results(cfg in arb_config(), path in arb_path()) {
        let g = generate(&cfg).build_goddag();
        let idx = StructIndex::build(&g);
        let compiled = xpath_plan(&path);

        let base = xpath_nodes(&g, &idx, &compiled, false);
        let opt = xpath_nodes(&g, &idx, &compiled, true);
        prop_assert_eq!(&base, &opt, "xpath optimized vs as-written on `{}`", path);
        // Results must be in document order with no duplicates.
        for w in opt.windows(2) {
            prop_assert_eq!(g.cmp_order(w[0], w[1]), std::cmp::Ordering::Less);
        }

        let q_base = xquery_trace(&g, &path, false);
        let q_opt = xquery_trace(&g, &path, true);
        prop_assert_eq!(&q_base, &q_opt, "xquery optimized vs as-written on `{}`", path);
    }

    /// The two front ends also agree with each other under the optimizer —
    /// the lowered XPath plan and the XQuery `for` over the same path never
    /// diverge.
    #[test]
    fn engines_agree_under_optimizer(cfg in arb_config(), path in arb_path()) {
        let g = generate(&cfg).build_goddag();
        let idx = StructIndex::build(&g);
        let compiled = xpath_plan(&path);
        let xp: Vec<String> = xpath_nodes(&g, &idx, &compiled, true)
            .iter()
            .map(|&n| format!("{}:{}", g.name(n).unwrap_or(""), g.string_value(n)))
            .collect();
        let xq: Vec<String> = xquery_trace(&g, &path, true)
            .split('\u{1}')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        prop_assert_eq!(xp, xq, "front ends disagree under the optimizer on `{}`", path);
    }

    /// Served `Catalog::xpath` answers — optimizer on and off — equal the
    /// naive reference interpreter's node sets on random extended paths.
    #[test]
    fn served_xpath_equals_reference_interpreter(cfg in arb_config(), path in arb_path()) {
        let g = generate(&cfg).build_goddag();
        let Value::Nodes(expected) = evaluate_xpath(&g, &path).unwrap() else {
            return Err(TestCaseError::fail("paths yield node-sets"));
        };
        let catalog = Catalog::new();
        catalog.insert("doc", g);
        for optimize in [false, true] {
            let mut session = catalog.session("doc").unwrap();
            session.options_mut().optimize = optimize;
            let out = session.xpath(&path).unwrap();
            prop_assert_eq!(
                out.nodes(), Some(expected.as_slice()),
                "served (optimize={}) vs reference on `{}`", optimize, path
            );
        }
    }

    /// Round-2 rewrites (containment-chain joins, existential probes,
    /// hoisting) stay invisible on paths built to trigger them: `//a//b`
    /// chains carrying boolean-axis predicate lists, through both
    /// engines, against the as-written oracle.
    #[test]
    fn chain_joins_and_probes_are_invisible(cfg in arb_config(), path in arb_chain_path()) {
        let g = generate(&cfg).build_goddag();
        let idx = StructIndex::build(&g);
        let compiled = xpath_plan(&path);

        let base = xpath_nodes(&g, &idx, &compiled, false);
        let opt = xpath_nodes(&g, &idx, &compiled, true);
        prop_assert_eq!(&base, &opt, "xpath optimized vs as-written on `{}`", path);
        for w in opt.windows(2) {
            prop_assert_eq!(g.cmp_order(w[0], w[1]), std::cmp::Ordering::Less);
        }

        let q_base = xquery_trace(&g, &path, false);
        let q_opt = xquery_trace(&g, &path, true);
        prop_assert_eq!(&q_base, &q_opt, "xquery optimized vs as-written on `{}`", path);
    }
}

// ----------------------------------------------------------------------
// Positional-semantics regression table
// ----------------------------------------------------------------------

/// Pages + words over the text `aaa bbb ccc`, with the page break placed
/// *inside* the second word: `bbb` straddles the boundary, so it has no
/// `xancestor::p` while `aaa` and `ccc` do.
fn paged() -> Goddag {
    GoddagBuilder::new()
        .hierarchy("pages", "<r><p>aaa bb</p><p>b ccc</p></r>")
        .hierarchy("words", "<r><w>aaa</w> <w>bbb</w> <w>ccc</w></r>")
        .build()
        .unwrap()
}

/// Hand-computed answers for queries mixing positional and structural
/// predicates. The optimizer must never reorder across a positional
/// predicate — `w[2][xancestor::p]` (empty: `bbb` straddles the page
/// break) and `w[xancestor::p][2]` (`ccc`) are different queries.
#[test]
fn positional_semantics_pinned() {
    let g = paged();
    let idx = StructIndex::build(&g);
    let table: &[(&str, &[&str])] = &[
        ("/descendant::w[position() = 2]", &["bbb"]),
        ("/descendant::w[2]", &["bbb"]),
        ("/descendant::w[last()]", &["ccc"]),
        ("/descendant::w[xancestor::p]", &["aaa", "ccc"]),
        // positional after structural: filter first, then index.
        ("/descendant::w[xancestor::p][2]", &["ccc"]),
        ("/descendant::w[xancestor::p][position() = 1]", &["aaa"]),
        // structural after positional: index first, then filter — the
        // second word straddles the page break, so nothing survives.
        ("/descendant::w[2][xancestor::p]", &[]),
        ("/descendant::w[last()][xancestor::p]", &["ccc"]),
        // `//w[2]` is "second w-child of each parent", not fusable.
        ("//w[2]", &["bbb"]),
        // filter-expression predicates follow the same rules.
        ("(/descendant::w)[2]", &["bbb"]),
        ("(/descendant::w[xancestor::p])[last()]", &["ccc"]),
    ];
    for (src, expected) in table {
        let compiled = xpath_plan(src);
        for optimize in [false, true] {
            let got: Vec<String> = xpath_nodes(&g, &idx, &compiled, optimize)
                .iter()
                .map(|&n| g.string_value(n).to_string())
                .collect();
            assert_eq!(
                &got.iter().map(String::as_str).collect::<Vec<_>>(),
                expected,
                "`{src}` with optimize={optimize}"
            );
        }
        // And through the XQuery evaluator, both knob settings.
        for optimize in [false, true] {
            let got = xquery_trace(&g, src, optimize);
            let words: Vec<&str> = got
                .split('\u{1}')
                .filter(|s| !s.is_empty())
                .map(|s| s.split_once(':').unwrap().1)
                .collect();
            assert_eq!(&words, expected, "xquery `{src}` with optimize={optimize}");
        }
    }
}

/// The fusion rewrite really fires on this corpus and stays invisible:
/// `//w` (two desugared walks) equals `/descendant::w`, and the engine
/// counters prove the optimized run used a rewritten plan.
#[test]
fn fusion_equivalence_and_counters() {
    let g = paged();
    let idx = StructIndex::build(&g);
    let compiled = xpath_plan("//w[xancestor::p]");
    assert!(compiled.report().fused_steps >= 1);
    assert!(compiled.report().batch_routed_steps >= 1);

    let (ns, k) = xpath_run(&g, &idx, &compiled, true);
    assert_eq!(ns.len(), 2);
    assert!(k.batched_steps >= 1, "fused step took the batch path");
    assert!(k.rewritten_steps >= 1);

    // As-written plan: same result, nothing rewritten.
    let (ns0, k0) = xpath_run(&g, &idx, &compiled, false);
    assert_eq!(ns0, ns);
    assert_eq!(k0.rewritten_steps, 0);
}

/// A single-hierarchy corpus where `p` really contains `w` in the tree —
/// `//p//w` has non-trivial answers, unlike the cross-hierarchy [`paged`].
fn nested() -> Goddag {
    GoddagBuilder::new()
        .hierarchy("doc", "<r><p><w>aaa</w> <w>bbb</w></p> <w>ccc</w></r>")
        .build()
        .unwrap()
}

/// Existential early-exit must NOT fire where it would change semantics:
/// a numeric-typed predicate (`count(...)` is a position shorthand) and a
/// positional predicate pin the step to the per-candidate path, and the
/// runtime counter stays at zero. The boolean-axis control fires.
#[test]
fn early_exit_fires_only_on_boolean_axis_predicates() {
    let g = paged();
    let idx = StructIndex::build(&g);

    for src in [
        // count(...) is numeric: [count(xfollowing::p)] means position().
        "/descendant::w[count(xfollowing::p)]",
        // positional context: the probe annotation must not cross [2].
        "/descendant::w[2][xancestor::p]",
    ] {
        let compiled = xpath_plan(src);
        assert_eq!(compiled.report().existential_probes, 0, "`{src}` must not be annotated");
        let (_, k) = xpath_run(&g, &idx, &compiled, true);
        assert_eq!(k.early_exit_steps, 0, "`{src}` must not probe");
    }

    let compiled = xpath_plan("/descendant::w[xancestor::p]");
    assert!(compiled.report().existential_probes >= 1);
    let (ns, k) = xpath_run(&g, &idx, &compiled, true);
    assert_eq!(ns.len(), 2);
    assert!(k.early_exit_steps >= 1, "the boolean-axis control must probe");

    // Knob off: same nodes, no probes counted.
    let (ns0, k0) = xpath_run(&g, &idx, &compiled, false);
    assert_eq!(ns0, ns);
    assert_eq!(k0.early_exit_steps, 0);
}

/// The chain-join and hoist rewrites fire on corpora built for them, stay
/// invisible in the results, and surface in the runtime counters.
#[test]
fn chain_join_and_hoist_counters() {
    let g = nested();
    let idx = StructIndex::build(&g);

    let chain = xpath_plan("//p//w");
    assert_eq!(chain.report().chain_join_steps, 1);
    let (ns, k) = xpath_run(&g, &idx, &chain, true);
    assert_eq!(ns.len(), 2, "aaa and bbb sit under p; ccc does not");
    assert!(k.chain_joins >= 1);
    let (ns0, k0) = xpath_run(&g, &idx, &chain, false);
    assert_eq!(ns0, ns);
    assert_eq!(k0.chain_joins, 0);

    let hoist = xpath_plan("/descendant::w[count(/descendant::p) > 0]");
    assert!(hoist.report().hoisted_predicates >= 1);
    let (ns, k) = xpath_run(&g, &idx, &hoist, true);
    assert_eq!(ns.len(), 3, "the hoisted predicate is true for every w");
    assert!(k.hoisted_preds >= 1);
    let (ns0, k0) = xpath_run(&g, &idx, &hoist, false);
    assert_eq!(ns0, ns);
    assert_eq!(k0.hoisted_preds, 0);

    // Same queries through the XQuery engine, both knob settings.
    for src in ["//p//w", "/descendant::w[count(/descendant::p) > 0]"] {
        assert_eq!(xquery_trace(&g, src, true), xquery_trace(&g, src, false), "`{src}`");
    }
}
