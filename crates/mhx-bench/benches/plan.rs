//! E16 — the plan-level optimizer, A/B on the same compiled queries.
//!
//! Every query is XPath text compiled once, the way the catalog compiles
//! it (parsed, lowered into the query plan, optimized); the compiled
//! query carries both the plan as written and the optimizer's rewrite,
//! and the `optimize` knob selects one at evaluation time — so the two
//! timings differ *only* by the rewrites (predicate reordering, `//x`
//! fusion, set-at-a-time routing of position-free predicated steps). Queries are predicate-heavy shapes on
//! a ≥10k-node corpus: extended-axis predicates over wide contexts (where
//! the per-node path re-evaluates the predicate per context × candidate
//! pair), `//`-abbreviated paths (where fusion turns four tree walks into
//! indexed scans), and deliberately positional queries that the optimizer
//! must leave alone (the parity floor).
//!
//! The machine-readable snapshot goes to `BENCH_plan.json` at the
//! workspace root; its `gate` rows are what the `bench-check` CI gate
//! tracks.

use criterion::{criterion_group, criterion_main, Criterion};
use mhx_bench::snapshot::{self, rounded, Metric};
use mhx_corpus::{generate, GeneratorConfig};
use mhx_goddag::{Goddag, StructIndex};
use mhx_xquery::{CompiledXQuery, EvalOptions, Item};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Same ≥10k-node corpus as the batch bench (counted, not assumed).
fn large_corpus() -> Goddag {
    let doc = generate(&GeneratorConfig {
        text_len: 24_000,
        hierarchies: 4,
        boundary_jitter: 0.8,
        avg_element_len: 25,
        nested: true,
        ..Default::default()
    });
    let g = doc.build_goddag();
    assert!(g.all_nodes().len() >= 10_000, "corpus too small: {} nodes", g.all_nodes().len());
    g
}

/// One measured query: label, XPath text, and the gate floors of its
/// optimized-vs-as-written speedup, `(healthy, hard_min)`.
type Query = (&'static str, &'static str, (f64, f64));

/// The rewrite-profiting shapes must stay well ahead: the ≥2x bar.
const AHEAD: (f64, f64) = (2.5, 2.0);
/// Queries the optimizer leaves alone only must not fall behind.
const PARITY: (f64, f64) = (1.0, 0.6);

/// The first group profits from rewrites; the `positional_*` rows are
/// untouched by design and gate parity.
fn queries() -> Vec<Query> {
    vec![
        // Pure `//` fusion: four desugared tree walks become one indexed
        // name scan.
        ("fused_scan", "//e0", AHEAD),
        // `//` fusion + batch-routed extended-axis predicate.
        ("fused_ext_pred", "//s0[xancestor::e0]", AHEAD),
        // Wide-context predicated step: 900+ e0 contexts, the predicate
        // runs once per unique candidate instead of per (ctx, candidate).
        ("wide_pred_batch", "/descendant::e0/descendant::s0[contains(string(.), 'sin')]", AHEAD),
        // Fusion + overlap-axis predicate.
        ("overlap_fused", "//s0[overlapping::e1]", AHEAD),
        // Reordering: the cheap string test moves before the span lookup.
        // The win depends on predicate selectivity, so it gates above
        // break-even only.
        (
            "reorder_cheap_first",
            "/descendant::s0[xpreceding::e1][contains(string(.), 'sin')]",
            (1.5, 1.0),
        ),
        // Round 2 — existential early-exit: the boolean axis predicate
        // stops at the first witness instead of materializing xfollowing
        // per candidate. It must stay an order of magnitude ahead (≥20x).
        ("existential_early_exit", "//e0[xfollowing::e1]", (25.0, 20.0)),
        // Round 2 — containment-chain join: two descendant name scans
        // become one merge join over the laminar containment chains.
        ("chain_join", "/descendant::e0/descendant::s0", AHEAD),
        // Round 2 — predicate hoisting: the context-independent count()
        // evaluates once per step, not once per candidate.
        ("hoisted_pred", "/descendant::e0[count(/descendant::e1) > 0]", (5.0, 2.0)),
        // Round 2 — stats-driven ordering: both predicates are axis paths
        // with equal static weight, so only the document's name counts
        // (e0 is rarer than e1 on this corpus) decide that the
        // written-second predicate runs first. Routed + probed it runs
        // well ahead, and the floor guards that combined win.
        ("stats_reorder", "/descendant::s0[xdescendant::e1][xpreceding::e0]", (8.0, 4.0)),
        // Positional queries the optimizer must not touch — parity gates.
        ("positional_parity", "/descendant::e0[position() = 2]/xfollowing::*", PARITY),
        ("positional_last", "/descendant::e0[last()]", PARITY),
    ]
}

fn compile(src: &str) -> CompiledXQuery {
    CompiledXQuery::from_xpath(src.to_string(), &mhx_xpath::parse(src).unwrap())
}

fn eval(g: &Goddag, idx: &StructIndex, q: &CompiledXQuery, optimize: bool) -> Vec<Item> {
    let opts = EvalOptions { optimize, ..Default::default() };
    q.evaluate(g, Some(idx), &opts).expect("bench queries evaluate").1
}

/// E16 through criterion (snapshot below carries the tracked numbers).
fn optimized_vs_as_written(c: &mut Criterion) {
    let g = large_corpus();
    let idx = StructIndex::build(&g);
    let mut grp = c.benchmark_group("e16_plan_optimizer");
    grp.sample_size(10).measurement_time(Duration::from_millis(600));
    for (label, src, _) in queries() {
        let q = compile(src);
        grp.bench_function(format!("as_written_{label}"), |b| {
            b.iter(|| black_box(eval(&g, &idx, &q, false)))
        });
        grp.bench_function(format!("optimized_{label}"), |b| {
            b.iter(|| black_box(eval(&g, &idx, &q, true)))
        });
    }
    grp.finish();
}

/// E16 snapshot — per-query medians, speedups and rewrite counts, written
/// to `BENCH_plan.json` at the workspace root.
fn emit_snapshot(_c: &mut Criterion) {
    let g = large_corpus();
    let idx = StructIndex::build(&g);
    let node_count = g.all_nodes().len();

    let median_ns = |f: &dyn Fn()| -> f64 {
        f(); // warm
        let mut samples = Vec::with_capacity(9);
        for _ in 0..9 {
            let t0 = Instant::now();
            f();
            samples.push(t0.elapsed().as_secs_f64() * 1e9);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        samples[samples.len() / 2]
    };

    let mut rows = Vec::new();
    let mut gate = Vec::new();
    for (label, src, (healthy, hard_min)) in queries() {
        let q = compile(src);
        // Differential safety net: the snapshot never reports a speedup
        // for results that disagree.
        assert_eq!(
            eval(&g, &idx, &q, false),
            eval(&g, &idx, &q, true),
            "optimized disagrees with as-written on {label}"
        );
        let as_written = median_ns(&|| {
            black_box(eval(&g, &idx, &q, false));
        });
        let optimized = median_ns(&|| {
            black_box(eval(&g, &idx, &q, true));
        });
        let speedup = as_written / optimized;
        let rewrites = q.report().total();
        rows.push(format!(
            "    {{\"query\": \"{label}\", \"as_written_ns\": {as_written:.0}, \
             \"optimized_ns\": {optimized:.0}, \"speedup\": {speedup:.2}, \
             \"rewrites\": {rewrites}}}"
        ));
        println!(
            "{label:<22} as-written {as_written:>12.0} ns   optimized {optimized:>12.0} ns   \
             speedup {speedup:>8.2}x   rewrites {rewrites}"
        );
        let name = format!("plan:{label}:speedup");
        gate.push(Metric::new(name, rounded(speedup, 2), healthy, hard_min));
    }
    let fields = format!(
        "  \"bench\": \"plan_optimizer\",\n  \"nodes\": {node_count},\n  \"rows\": [\n{}\n  ]",
        rows.join(",\n"),
    );
    let path = snapshot::write("plan", &fields, &gate);
    println!("wrote {} ({node_count} nodes)", path.display());
}

criterion_group!(benches, optimized_vs_as_written, emit_snapshot);
criterion_main!(benches);
