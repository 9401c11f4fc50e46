//! Figure-2 reproduction: dump a KyGODDAG as Graphviz DOT or as an
//! indented text outline.
//!
//! The paper's Figure 2 shows element nodes labelled `name` + occurrence
//! number (`dmg1`, `dmg2`, …), text nodes `t1, t2, …` in document order,
//! and numbered leaf boxes. We reproduce exactly that labelling.

use crate::goddag::Goddag;
use crate::node::NodeId;
use std::collections::HashMap;
use std::fmt::Write;

/// Paper-style labels: `line1`, `w3`, `t5`, leaf numbers `1..`.
pub struct Labels {
    map: HashMap<NodeId, String>,
}

impl Labels {
    pub fn new(g: &Goddag) -> Labels {
        let mut map = HashMap::new();
        map.insert(NodeId::Root, g.root_name().to_string());
        let mut name_counts: HashMap<String, u32> = HashMap::new();
        let mut text_count = 0u32;
        let mut nodes = g.all_nodes();
        g.sort_nodes(&mut nodes);
        let mut leaf_no = 0u32;
        for n in nodes {
            match n {
                NodeId::Elem { .. } => {
                    let name = g.name(n).unwrap_or("?").to_string();
                    let c = name_counts.entry(name.clone()).or_insert(0);
                    *c += 1;
                    map.insert(n, format!("{name}{c}"));
                }
                NodeId::Text { .. } => {
                    text_count += 1;
                    map.insert(n, format!("t{text_count}"));
                }
                NodeId::Leaf { .. } => {
                    leaf_no += 1;
                    map.insert(n, format!("{leaf_no}"));
                }
                NodeId::Root | NodeId::Attr { .. } => {}
            }
        }
        Labels { map }
    }

    pub fn get(&self, n: NodeId) -> &str {
        self.map.get(&n).map(String::as_str).unwrap_or("?")
    }
}

/// Graphviz DOT rendering of the whole KyGODDAG (one cluster per
/// hierarchy, shared leaf row at the bottom).
pub fn to_dot(g: &Goddag) -> String {
    let labels = Labels::new(g);
    let mut out = String::new();
    let _ = writeln!(out, "digraph kygoddag {{");
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  root [label=\"{}\" shape=ellipse];", esc(labels.get(NodeId::Root)));
    for (h, hier) in g.hierarchies() {
        let _ = writeln!(out, "  subgraph cluster_{} {{", h.0);
        let _ = writeln!(out, "    label=\"{}\";", esc(&hier.name));
        for i in 0..hier.element_count() as u32 {
            let n = NodeId::Elem { h, i };
            let _ =
                writeln!(out, "    \"{}\" [shape=ellipse label=\"{}\"];", n, esc(labels.get(n)));
        }
        for i in 0..hier.text_count() as u32 {
            let n = NodeId::Text { h, i };
            let _ =
                writeln!(out, "    \"{}\" [shape=plaintext label=\"{}\"];", n, esc(labels.get(n)));
        }
        let _ = writeln!(out, "  }}");
    }
    for &leaf in &g.leaves() {
        let _ = writeln!(
            out,
            "  \"{}\" [shape=box label=\"{}: {}\"];",
            leaf,
            esc(labels.get(leaf)),
            esc(g.string_value(leaf)),
        );
    }
    // Edges: DOM edges per hierarchy + text→leaf edges.
    let mut stack = vec![NodeId::Root];
    while let Some(n) = stack.pop() {
        for c in g.children(n) {
            let from = if n == NodeId::Root { "root".to_string() } else { n.to_string() };
            let _ = writeln!(out, "  \"{from}\" -> \"{c}\";");
            if !c.is_leaf() {
                stack.push(c);
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Indented text outline per hierarchy plus the leaf table — the form the
/// `repro fig2` harness prints.
pub fn to_text(g: &Goddag) -> String {
    let labels = Labels::new(g);
    let mut out = String::new();
    let _ = writeln!(out, "KyGODDAG over S = {:?}", g.text());
    let _ = writeln!(
        out,
        "hierarchies: {} ({} virtual), leaves: {}",
        g.hierarchy_count(),
        g.hierarchy_count() - g.base_hierarchy_count(),
        g.leaf_count()
    );
    for (h, hier) in g.hierarchies() {
        let _ = writeln!(out, "hierarchy {} ({}):", h.0, hier.name);
        for i in 0..hier.element_count() as u32 {
            let n = NodeId::Elem { h, i };
            // Compute depth by following parents to root.
            let mut depth = 1;
            let mut cur = n;
            while let Some(&p) = g.parents(cur).first() {
                if p == NodeId::Root {
                    break;
                }
                depth += 1;
                cur = p;
            }
            let (s, e) = g.span(n);
            let _ = writeln!(
                out,
                "{}{} [{}..{}) {:?}",
                "  ".repeat(depth),
                labels.get(n),
                s,
                e,
                g.string_value(n)
            );
        }
    }
    let _ = writeln!(out, "leaves:");
    for &leaf in &g.leaves() {
        let (s, e) = g.span(leaf);
        let _ = writeln!(out, "  {:>3} [{s}..{e}) {:?}", labels.get(leaf), g.string_value(leaf));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goddag::GoddagBuilder;

    fn small() -> Goddag {
        GoddagBuilder::new()
            .hierarchy("a", "<r><x>ab</x>cd</r>")
            .hierarchy("b", "<r>a<y>bc</y>d</r>")
            .build()
            .unwrap()
    }

    #[test]
    fn labels_follow_paper_convention() {
        let g = small();
        let labels = Labels::new(&g);
        let ha = g.hierarchy_id("a").unwrap();
        let hb = g.hierarchy_id("b").unwrap();
        assert_eq!(labels.get(NodeId::Elem { h: ha, i: 0 }), "x1");
        assert_eq!(labels.get(NodeId::Elem { h: hb, i: 0 }), "y1");
        assert_eq!(labels.get(NodeId::Root), "r");
        // Texts numbered in document order across hierarchies.
        assert_eq!(labels.get(NodeId::Text { h: ha, i: 0 }), "t1");
        // Leaves numbered 1.. in offset order.
        let leaves = g.leaves();
        assert_eq!(labels.get(leaves[0]), "1");
    }

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let g = small();
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("cluster_1"));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("root"));
        assert!(dot.contains("->"));
        // Leaf boundaries of the union: a|b splits → leaves a,b,c,d... x:0..2,
        // y:1..3 → boundaries 0,1,2,3,4 → 4 leaves.
        assert_eq!(g.leaf_count(), 4);
        assert_eq!(dot.matches("shape=box").count(), 4);
    }

    #[test]
    fn text_outline_shape() {
        let g = small();
        let t = to_text(&g);
        assert!(t.contains("hierarchy 0 (a):"));
        assert!(t.contains("x1 [0..2) \"ab\""));
        assert!(t.contains("leaves:"));
        assert!(t.contains("\"a\""));
    }

    #[test]
    fn duplicate_names_get_occurrence_numbers() {
        let g = GoddagBuilder::new()
            .hierarchy("d", "<r><dmg>a</dmg>b<dmg>c</dmg></r>")
            .build()
            .unwrap();
        let labels = Labels::new(&g);
        let h = g.hierarchy_id("d").unwrap();
        assert_eq!(labels.get(NodeId::Elem { h, i: 0 }), "dmg1");
        assert_eq!(labels.get(NodeId::Elem { h, i: 1 }), "dmg2");
    }
}
