//! Integration: every paper artifact through the public facade.

use multihier_xquery::corpus::figure1;
use multihier_xquery::prelude::*;
use multihier_xquery::xquery::{run_query_sequence, AnalyzeMode};

#[test]
fn e1_figure1_cmh_and_roundtrip() {
    let cmh = figure1::cmh();
    cmh.validate_documents(&figure1::documents()).unwrap();
    for (name, src) in figure1::ENCODINGS {
        let doc = multihier_xquery::xml::parse(src).unwrap();
        assert_eq!(multihier_xquery::xml::to_string(&doc), src, "{name} round-trips");
        assert_eq!(doc.string_value(doc.root_element().unwrap()), figure1::TEXT, "{name} spells S");
    }
}

#[test]
fn e2_figure2_structure() {
    let g = figure1::goddag();
    assert_eq!(g.leaf_count(), 16);
    let leaf_texts: Vec<&str> = g.leaves().iter().map(|&l| g.string_value(l)).collect();
    assert_eq!(leaf_texts, figure1::LEAVES);
    // Node counts per hierarchy as in Figure 2.
    let count = |name: &str| {
        let h = g.hierarchy_id(name).unwrap();
        g.hierarchy(h).element_count()
    };
    assert_eq!(count("lines"), 2); // line1, line2
    assert_eq!(count("words"), 9); // 3 vlines + 6 words
    assert_eq!(count("restorations"), 3); // res1..res3
    assert_eq!(count("damage"), 2); // dmg1, dmg2
                                    // The DOT dump mentions every cluster and all 16 leaf boxes.
    let dot = multihier_xquery::goddag::dot::to_dot(&g);
    for c in ["cluster_0", "cluster_1", "cluster_2", "cluster_3"] {
        assert!(dot.contains(c));
    }
    assert_eq!(dot.matches("shape=box").count(), 16);
}

#[test]
fn e3_to_e7_all_paper_queries() {
    let g = figure1::goddag();
    for (id, query, expected) in figure1::PAPER_QUERIES {
        let out = run_query(&g, query).unwrap_or_else(|e| panic!("query {id}: {e}"));
        assert_eq!(out, expected, "query {id}");
    }
}

#[test]
fn query_i1_via_plain_xpath_engine_too() {
    // The path-only part of I.1 works as XPath: through the reference
    // interpreter and through the served XPath front end.
    let g = figure1::goddag();
    let path = "/descendant::line[xdescendant::w[string(.) = 'singallice'] or \
                overlapping::w[string(.) = 'singallice']]";
    let v = evaluate_xpath(&g, path).unwrap();
    let multihier_xquery::xpath::Value::Nodes(ns) = v else { panic!("expected nodes") };
    let texts: Vec<&str> = ns.iter().map(|&n| g.string_value(n)).collect();
    assert_eq!(texts, vec!["gesceaftum unawendendne sin", "gallice sibbe gecynde þa"]);
    assert_eq!(Engine::new(g).xpath(path).unwrap().nodes(), Some(ns.as_slice()));
}

#[test]
fn temporary_hierarchies_never_leak() {
    let g = figure1::goddag();
    for _ in 0..3 {
        run_query(&g, figure1::QUERY_II1).unwrap();
        run_query(&g, figure1::QUERY_III1).unwrap();
    }
    assert_eq!(g.hierarchy_count(), 4);
    assert_eq!(g.leaf_count(), 16);
}

#[test]
fn xslt_mode_differs_from_paper_mode() {
    let g = figure1::goddag();
    let paper = run_query_with(&g, figure1::QUERY_EX1, &EvalOptions::default()).unwrap();
    let xslt = run_query_with(
        &g,
        figure1::QUERY_EX1,
        &EvalOptions { analyze_mode: AnalyzeMode::Xslt, ..Default::default() },
    )
    .unwrap();
    assert_eq!(paper, figure1::EXPECTED_EX1);
    assert_ne!(paper, xslt, "anchored .* patterns behave differently in XSLT mode");
}

#[test]
fn sequence_output_form() {
    let g = figure1::goddag();
    let items = run_query_sequence(&g, figure1::QUERY_I1, &EvalOptions::default()).unwrap();
    assert_eq!(items, vec!["gesceaftum unawendendne sin", "gallice sibbe gecynde þa"]);
}
