//! The unified query result type.
//!
//! Both query languages run on one engine and return a [`QueryOutcome`],
//! so callers never branch on language. XPath keeps its XPath 1.0 typed
//! view — node sets and single atomics — while XQuery results are
//! serialized markup. Every outcome carries its paper-style serialized
//! form, rendered once at evaluation time by the evaluator that produced
//! the result (element nodes render their own hierarchy's markup, leaves
//! render text).
//!
//! Serializing eagerly is a deliberate trade-off: it makes the outcome
//! self-contained (valid after the document mutates or is removed, safe to
//! ship across threads) at the cost of rendering markup the caller may
//! never read. Node-set queries pay per result-subtree — for bulk node
//! *enumeration* on large documents (`/descendant::*`), compile once with
//! [`mhx_xquery::CompiledXQuery::from_xpath`] and call its index-backed
//! [`evaluate`](mhx_xquery::CompiledXQuery::evaluate), which returns
//! unserialized items, instead of going through the catalog facade.
//! ([`mhx_xpath::evaluate_xpath`] is the unindexed reference interpreter,
//! kept as the test oracle.)

use crate::engine::error::QueryLang;
use mhx_goddag::NodeId;
use mhx_xquery::Item;

/// The value inside a [`QueryOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryValue {
    /// A node set in KyGODDAG document order (XPath node-set results).
    Nodes(Vec<NodeId>),
    Str(String),
    Num(f64),
    Bool(bool),
    /// Serialized markup (XQuery sequences, which may contain constructed
    /// elements that outlive no evaluator).
    Markup(String),
}

/// What a query evaluated to, in both typed and serialized form.
///
/// ```
/// use multihier_xquery::prelude::*;
///
/// let catalog = Catalog::new();
/// catalog.insert(
///     "ms",
///     GoddagBuilder::new()
///         .hierarchy("lines", "<r><line>ab</line><line>cd</line></r>")
///         .hierarchy("words", "<r><w>a</w><w>bc</w><w>d</w></r>")
///         .build()
///         .unwrap(),
/// );
///
/// // Same result type from both languages:
/// let n = catalog.xpath("ms", "count(/descendant::w)").unwrap();
/// let q = catalog.xquery("ms", "count(/descendant::w)").unwrap();
/// assert_eq!(n.serialize(), "3");
/// assert_eq!(q.serialize(), "3");
/// assert_eq!(n.num(), Some(3.0));
///
/// // Node sets keep their identity alongside the serialized form
/// // (element nodes render the markup of their own hierarchy).
/// let words = catalog.xpath("ms", "/descendant::w[overlapping::line]").unwrap();
/// assert_eq!(words.nodes().unwrap().len(), 1);
/// assert_eq!(words.serialize(), "<w>bc</w>");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    lang: QueryLang,
    value: QueryValue,
    serialized: String,
}

impl QueryOutcome {
    /// Wrap one evaluation's result. XQuery outcomes are markup; XPath
    /// outcomes get XPath 1.0's typed view of the same items: all nodes
    /// (none included) → [`QueryValue::Nodes`], one atomic → its
    /// [`QueryValue::Str`]/[`Num`](QueryValue::Num)/[`Bool`](QueryValue::Bool).
    /// Anything else (only XQuery-only functions produce it) stays markup.
    pub(crate) fn new(lang: QueryLang, items: Vec<Item>, serialized: String) -> QueryOutcome {
        let value = match (lang, items.as_slice()) {
            (QueryLang::XPath, [Item::Str(s)]) => QueryValue::Str(s.clone()),
            (QueryLang::XPath, [Item::Num(n)]) => QueryValue::Num(*n),
            (QueryLang::XPath, [Item::Bool(b)]) => QueryValue::Bool(*b),
            (QueryLang::XPath, _) if items.iter().all(|i| matches!(i, Item::Node(_))) => {
                QueryValue::Nodes(items.iter().filter_map(Item::as_goddag_node).collect())
            }
            _ => QueryValue::Markup(serialized.clone()),
        };
        QueryOutcome { lang, value, serialized }
    }

    /// Which language produced this outcome.
    pub fn lang(&self) -> QueryLang {
        self.lang
    }

    /// The paper-style serialized form ("the output … is either a string
    /// or a sequence of strings").
    pub fn serialize(&self) -> &str {
        &self.serialized
    }

    /// Consume into the serialized form without cloning.
    pub fn into_string(self) -> String {
        self.serialized
    }

    /// Borrow the typed value.
    pub fn value(&self) -> &QueryValue {
        &self.value
    }

    /// Consume into the typed value.
    pub fn into_value(self) -> QueryValue {
        self.value
    }

    /// The node set, if this outcome is one.
    pub fn nodes(&self) -> Option<&[NodeId]> {
        match &self.value {
            QueryValue::Nodes(ns) => Some(ns),
            _ => None,
        }
    }

    /// The numeric value, if this outcome is an atomic number.
    pub fn num(&self) -> Option<f64> {
        match &self.value {
            QueryValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this outcome is an atomic boolean.
    pub fn bool(&self) -> Option<bool> {
        match &self.value {
            QueryValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// True when the outcome holds nothing: an empty node set or an empty
    /// serialized sequence.
    pub fn is_empty(&self) -> bool {
        match &self.value {
            QueryValue::Nodes(ns) => ns.is_empty(),
            QueryValue::Str(s) | QueryValue::Markup(s) => s.is_empty(),
            QueryValue::Num(_) | QueryValue::Bool(_) => false,
        }
    }
}

impl std::fmt::Display for QueryOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.serialized)
    }
}
