//! Integration: the XPath front end keeps XPath 1.0 semantics on the one
//! query engine. The naive reference interpreter and XQuery agree on the
//! path sub-language, and served XPath answers are pinned row by row.

use multihier_xquery::corpus::{generate, GeneratorConfig};
use multihier_xquery::prelude::*;
use multihier_xquery::server::wire::error_kind;
use multihier_xquery::xpath::Value;

/// Evaluate a path through the reference interpreter and as XQuery, and
/// compare result node string-values.
fn compare(g: &mhx_goddag::Goddag, path: &str) {
    let xp = match evaluate_xpath(g, path).unwrap() {
        Value::Nodes(ns) => ns
            .iter()
            .map(|&n| format!("{}:{}", g.name(n).unwrap_or(""), g.string_value(n)))
            .collect::<Vec<_>>(),
        other => panic!("expected node-set from `{path}`, got {other:?}"),
    };
    let q = format!("for $n in {path} return concat(name($n), ':', string($n), '\u{1}')");
    let xq_out = run_query(g, &q).unwrap();
    let xq: Vec<String> =
        xq_out.split('\u{1}').filter(|s| !s.is_empty()).map(str::to_string).collect();
    assert_eq!(xp, xq, "engines disagree on `{path}`");
}

#[test]
fn engines_agree_on_extended_paths() {
    let doc = generate(&GeneratorConfig {
        text_len: 700,
        hierarchies: 3,
        boundary_jitter: 0.8,
        nested: true,
        ..Default::default()
    });
    let g = doc.build_goddag();
    for path in [
        "/descendant::e0",
        "/descendant::e1[overlapping::e0]",
        "/descendant::e2[xancestor::e0]",
        "/descendant::e0/xdescendant::e1",
        "/descendant::e0[1]/xfollowing::e1",
        "/descendant::e0[last()]/xpreceding::e1",
        "/descendant::e1[preceding-overlapping::e0]",
        "/descendant::e1[following-overlapping::e0]",
        "/descendant::leaf()[ancestor::e0 and ancestor::e1]",
        "/descendant::text(\"h0\")",
        "/descendant::node(\"h1\")[2]",
        "/descendant::*(\"h2\")",
        "/descendant::s0/parent::node()",
        "//e0/following-sibling::e0[1]",
        "/descendant::e0[@n = '1']",
    ] {
        compare(&g, path);
    }
}

#[test]
fn engines_agree_on_figure1_paths() {
    let g = multihier_xquery::corpus::figure1::goddag();
    for path in [
        "/descendant::line[xdescendant::w[string(.) = 'singallice'] or \
         overlapping::w[string(.) = 'singallice']]",
        "/descendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]",
        "/descendant::leaf()[ancestor::w and ancestor::dmg]",
        "/descendant::vline/xdescendant::res",
        "/descendant::res[overlapping::line]",
    ] {
        compare(&g, path);
    }
}

/// Engine counters for the batch path: both languages report steps taken
/// set-at-a-time and steps executed from optimizer-rewritten plans.
#[test]
fn engine_counts_batched_and_rewritten_steps() {
    let doc = generate(&GeneratorConfig {
        text_len: 700,
        hierarchies: 3,
        boundary_jitter: 0.8,
        nested: true,
        ..Default::default()
    });
    let catalog = Catalog::new();
    catalog.insert("doc", doc.build_goddag());
    assert_eq!(catalog.eval_stats(), EvalStats::default(), "counters start at zero");

    // `//e0[xfollowing::e1]` desugars to two axis walks; the optimizer
    // fuses them into one indexed scan and batch-routes the predicate, so
    // the (default-on) path reports one batched, rewritten step.
    catalog.xpath("doc", "//e0[xfollowing::e1]").unwrap();
    let after_xpath = catalog.eval_stats();
    assert!(after_xpath.batched_steps >= 1, "{after_xpath:?}");
    assert!(after_xpath.rewritten_steps >= 1, "{after_xpath:?}");
    assert!(after_xpath.plan_rewrites >= 2, "fusion + batch routing: {after_xpath:?}");

    // Same path through the XQuery evaluator: counters keep growing.
    catalog.xquery("doc", "for $n in //e0[xfollowing::e1] return name($n)").unwrap();
    let after_xquery = catalog.eval_stats();
    assert!(after_xquery.batched_steps > after_xpath.batched_steps, "{after_xquery:?}");
    assert!(after_xquery.rewritten_steps > after_xpath.rewritten_steps, "{after_xquery:?}");

    // Optimize off: predicate-free steps still batch, but nothing is
    // "rewritten" — the knob really selects the as-written plan.
    let mut session = catalog.session("doc").unwrap();
    session.options_mut().optimize = false;
    session.xpath("/descendant::e0/xfollowing::e1").unwrap();
    let after_off = catalog.eval_stats();
    assert!(after_off.batched_steps > after_xquery.batched_steps, "{after_off:?}");
    assert_eq!(after_off.rewritten_steps, after_xquery.rewritten_steps, "{after_off:?}");
    assert_eq!(after_off.plan_rewrites, after_xquery.plan_rewrites, "{after_off:?}");

    // A positional predicate pins its step to the per-node path: the
    // rewritten counter must not move for a purely positional step.
    let before = catalog.eval_stats();
    catalog.xpath("doc", "/descendant::e0[position() = 2]").unwrap();
    let after_positional = catalog.eval_stats();
    assert_eq!(after_positional.rewritten_steps, before.rewritten_steps, "{after_positional:?}");
}

#[test]
fn xpath_functions_match_xquery_functions() {
    let g = multihier_xquery::corpus::figure1::goddag();
    for (xp, xq) in [
        ("count(/descendant::w)", "count(/descendant::w)"),
        ("string-length(string(/))", "string-length(string(root()))"),
        ("normalize-space('  a  b ')", "normalize-space('  a  b ')"),
        ("substring('singallice', 4, 4)", "substring('singallice', 4, 4)"),
        ("translate('abc', 'ab', 'x')", "translate('abc', 'ab', 'x')"),
    ] {
        let a = evaluate_xpath(&g, xp).unwrap().to_str(&g);
        let b = run_query(&g, xq).unwrap();
        assert_eq!(a, b, "{xp} vs {xq}");
    }
}

/// Served XPath answers pinned row by row: `(document, query, kind,
/// serialized)`, where `kind` is the [`QueryValue`] variant or
/// `error:<wire kind>`. Recorded from the standalone compiled-XPath engine
/// before XPath was lowered onto the XQuery plan, so every XPath 1.0 rule
/// the lowering re-creates as plain AST is held here. The rows are:
///
/// * every XPath text of the served benchmark's workloads (`LIT` is the
///   upload-churn template placeholder; `'an'` one instantiation of it);
/// * the texts where the XQuery engine answered differently when run
///   directly — node-set arguments to string and number parameters,
///   `tokenize` as a string, zero-argument `leaves()`/`hierarchy()`, the
///   root as the initial focus, and relational comparisons with booleans;
/// * node-set general comparisons and positional shorthand corners;
/// * `$x` unbound (an evaluation error, and lazily never raised when no
///   candidate reaches the predicate);
/// * parse-boundary rows: `()` and `1, 2` are XQuery, not XPath.
const PINNED: &[(&str, &str, &str, &str)] = &[
    ("gen", "count(/descendant::e0)", "number", "23"),
    ("gen", "/descendant::e1[2]", "nodes", "<e1 n=\"1\">eo gal sibþaþa besinge begeunawen liceþa umgalne dendlicesibgal þanenegal s</e1>"),
    ("gen", "/descendant::e0[position() = 3]/xfollowing::e1[1]", "nodes", "<e1 n=\"2\">ib sinwen wenheoheo þane debeunane dend<s1>una unaheo sceaftsibgal bebebesib heosinn</s1></e1>"),
    ("gen", "/descendant::e2[last()]", "nodes", "<e2 n=\"20\">enddene</e2>"),
    ("gen", "count(/descendant::e1[overlapping::e0])", "number", "14"),
    ("gen", "/descendant::e2[4]/xpreceding::e0[last()]", "nodes", "<e0 n=\"0\">umunadendheo gal sibþ</e0>"),
    ("gen", "count(//s0[overlapping::e1])", "number", "6"),
    ("gen", "count(//e0[xfollowing::e1])", "number", "21"),
    ("gen", "count(/descendant::e0/descendant::s0)", "number", "13"),
    ("gen", "count(/descendant::e2[count(/descendant::e1) > 0])", "number", "21"),
    ("gen", "/descendant::s1[xancestor::e0][contains(string(.), 'sceaft')][1]", "nodes", "<s1>una unaheo sceaftsibgal bebebesib heosinn</s1>"),
    ("gen", "/descendant::e1[3]", "nodes", "<e1 n=\"2\">ib sinwen wenheoheo þane debeunane dend<s1>una unaheo sceaftsibgal bebebesib heosinn</s1></e1>"),
    ("gen", "count(/descendant::e0[contains(string(.), 'LIT')])", "number", "0"),
    ("gen", "/descendant::e2[contains(string(.), 'LIT')][1]", "nodes", ""),
    ("gen", "count(/descendant::e0[contains(string(.), 'an')])", "number", "3"),
    ("gen", "/descendant::e2[contains(string(.), 'an')][1]", "nodes", "<e2 n=\"0\">umunadendheo gal sibþaþa besinge begeun<s2>awen liceþa umgalne dendlicesibgal þane</s2></e2>"),
    ("fig", "string(//w)", "string", "gesceaftum"),
    ("fig", "contains(//w,'ea')", "boolean", "true"),
    ("fig", "floor(//w)", "number", "NaN"),
    ("fig", "round(//nothing)", "number", "NaN"),
    ("fig", "//w[tokenize(.,'a')]", "nodes", "<w>gesceaftum</w><w>unawendendne</w><w>singallice</w><w>sibbe</w><w>gecynde</w><w>þa</w>"),
    ("fig", "//w[hierarchy()='words']", "nodes", "<w>gesceaftum</w><w>unawendendne</w><w>singallice</w><w>sibbe</w><w>gecynde</w><w>þa</w>"),
    ("fig", "number(//w)", "number", "NaN"),
    ("fig", "string-length(//w)", "number", "10"),
    ("fig", "concat(//w, '|', //line)", "string", "gesceaftum|gesceaftum unawendendne sin"),
    ("fig", "substring(//w, 2, 3)", "string", "esc"),
    ("fig", "starts-with(//line, 'ges')", "boolean", "true"),
    ("fig", "normalize-space(//line)", "string", "gesceaftum unawendendne sin"),
    ("fig", "translate(//w, 'ge', 'GE')", "string", "GEscEaftum"),
    ("fig", "matches(//w, 'ea')", "boolean", "true"),
    ("fig", "replace(//w, 'ge', '_')", "string", "_sceaftum"),
    ("fig", "tokenize(//line, ' ')", "string", "gesceaftum unawendendne sin"),
    ("fig", "//w + 1", "number", "NaN"),
    ("fig", "-//nothing", "number", "NaN"),
    ("fig", "position()", "number", "1"),
    ("fig", "last()", "number", "1"),
    ("fig", ".", "nodes", "gesceaftum unawendendne singallice sibbe gecynde þa"),
    ("fig", "string(.)", "string", "gesceaftum unawendendne singallice sibbe gecynde þa"),
    ("fig", "descendant::w[2]", "nodes", "<w>unawendendne</w>"),
    ("fig", "leaves()", "nodes", "gesceaftum unawendendne singallice sibbe gecynde þa"),
    ("fig", "hierarchy()", "string", ""),
    ("fig", "name()", "string", "r"),
    ("fig", "true() > 0.5", "boolean", "true"),
    ("fig", "'2' > true()", "boolean", "true"),
    ("fig", "sum(//nothing)", "number", "0"),
    ("fig", "//w = 'sibbe'", "boolean", "true"),
    ("fig", "//w != 'sibbe'", "boolean", "true"),
    ("fig", "//w = //res", "boolean", "false"),
    ("fig", "//w[. = //res]", "nodes", ""),
    ("fig", "//line = //vline", "boolean", "false"),
    ("fig", "//w < 5", "boolean", "false"),
    ("fig", "//w = true()", "boolean", "true"),
    ("fig", "//nothing = //w", "boolean", "false"),
    ("fig", "//w[0.5]", "nodes", ""),
    ("fig", "//w[-1]", "nodes", ""),
    ("fig", "//w[last() - 0.5]", "nodes", ""),
    ("fig", "(//w)[1.0]", "nodes", "<w>gesceaftum</w>"),
    ("fig", "$x", "error:eval", ""),
    ("fig", "//w[$x]", "error:eval", ""),
    ("fig", "//nothing[$x]", "nodes", ""),
    ("fig", "()", "error:parse", ""),
    ("fig", "1, 2", "error:parse", ""),
    ("fig", "/descendant::", "error:parse", ""),
    ("fig", "'a'/child::b", "error:eval", ""),
    ("fig", "'a' | //w", "error:eval", ""),
    ("fig", "name('x')", "error:eval", ""),
    ("fig", "count()", "error:eval", ""),
    ("fig", "concat('a')", "error:eval", ""),
    ("fig", "matches('x', '[')", "error:eval", ""),
    ("fig", "wat(1)", "error:eval", ""),
    ("fig", "count(//w)", "number", "6"),
    ("fig", "name(//w)", "string", "w"),
    ("fig", "leaves(//w[2])", "nodes", "unawendendnesibbe"),
    ("fig", "hierarchy(//dmg)", "string", "damage"),
    ("fig", "/", "nodes", "gesceaftum unawendendne singallice sibbe gecynde þa"),
    ("fig", "..", "nodes", ""),
    ("fig", "//w[1] | //line[2]", "nodes", "<line>gallice sibbe gecynde þa</line><w>gesceaftum</w><w>singallice</w><w>þa</w>"),
    ("fig", "(//w)[last()]", "nodes", "<w>þa</w>"),
    ("fig", "boolean(//nothing)", "boolean", "false"),
    ("fig", "not(//w)", "boolean", "false"),
    ("fig", "//w[string-length() > 6]", "nodes", "<w>gesceaftum</w><w>unawendendne</w><w>singallice</w><w>gecynde</w>"),
    ("fig", "//w[position() mod 2 = 0]", "nodes", "<w>unawendendne</w><w>sibbe</w>"),
    ("fig", "//leaf()[ancestor::w and ancestor::dmg]", "nodes", "wdeþa"),
    ("fig", "10 div 4", "number", "2.5"),
    ("fig", "1 div 0", "number", "Infinity"),
    ("fig", "//res/@x", "nodes", ""),
];

#[test]
fn served_xpath_answers_are_pinned() {
    let catalog = Catalog::new();
    catalog.insert("fig", multihier_xquery::corpus::figure1::goddag());
    catalog.insert(
        "gen",
        generate(&GeneratorConfig {
            text_len: 900,
            hierarchies: 4,
            boundary_jitter: 0.8,
            nested: true,
            ..Default::default()
        })
        .build_goddag(),
    );
    for &(doc, query, kind, serialized) in PINNED {
        let (got_kind, got) = match catalog.xpath(doc, query) {
            Ok(out) => {
                let kind = match out.value() {
                    QueryValue::Nodes(_) => "nodes",
                    QueryValue::Str(_) => "string",
                    QueryValue::Num(_) => "number",
                    QueryValue::Bool(_) => "boolean",
                    QueryValue::Markup(_) => "markup",
                };
                (kind.to_string(), out.serialize().to_string())
            }
            Err(e) => (format!("error:{}", error_kind(&e)), String::new()),
        };
        assert_eq!((got_kind.as_str(), got.as_str()), (kind, serialized), "`{query}` on {doc}");
    }
}
