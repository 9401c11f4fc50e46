//! # mhx-xml — XML substrate for the multihierarchical XQuery engine
//!
//! A from-scratch, dependency-free XML 1.0 subset:
//!
//! * [`reader`]: pull tokenizer with precise positions and entity expansion;
//! * [`dom`]: arena DOM whose node ids are allocated in document order;
//! * [`mod@parse`]: well-formedness-checking tree builder, which rejects
//!   nesting deeper than [`MAX_DEPTH`];
//! * [`serialize`]: writer with escaping and optional pretty-printing;
//! * [`dtd`]: `<!ELEMENT>`/`<!ATTLIST>`/`<!ENTITY>` declarations, content
//!   models compiled to Glushkov automata, and document validation.
//!
//! The subset is chosen for document-centric markup (TEI/EPPT-style
//! editions): no namespace processing (prefixes pass through as part of
//! names), no external entity fetching, no parameter entities.
//!
//! ```
//! let doc = mhx_xml::parse("<r><w>singallice</w></r>").unwrap();
//! let root = doc.root_element().unwrap();
//! assert_eq!(doc.string_value(root), "singallice");
//! assert_eq!(mhx_xml::to_string(&doc), "<r><w>singallice</w></r>");
//! ```

pub mod cursor;
pub mod dom;
pub mod dtd;
pub mod error;
pub mod escape;
pub mod name;
pub mod parse;
pub mod reader;
pub mod serialize;

pub use dom::{Attr, Document, Node, NodeId, NodeKind};
pub use error::{ErrorKind, Pos, Result, XmlError};
pub use parse::{parse, parse_with, ParseOptions, MAX_DEPTH};
pub use serialize::{node_to_string, to_string, to_string_with, SerializeOptions};

#[cfg(test)]
mod proptests {
    use crate::dom::{Document, NodeId};
    use proptest::prelude::*;

    /// Strategy: random well-formed documents built programmatically, then
    /// serialized. Text is drawn from a set that includes every character
    /// needing escaping plus multibyte chars.
    fn arb_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                Just('a'),
                Just('b'),
                Just(' '),
                Just('&'),
                Just('<'),
                Just('>'),
                Just('"'),
                Just('\''),
                Just('þ'),
                Just('\n'),
            ],
            1..12,
        )
        .prop_map(|cs| cs.into_iter().collect())
    }

    fn arb_name() -> impl Strategy<Value = String> {
        prop_oneof![Just("a"), Just("b"), Just("line"), Just("w"), Just("dmg"), Just("res")]
            .prop_map(str::to_string)
    }

    #[derive(Debug, Clone)]
    enum Tree {
        Text(String),
        Elem(String, Vec<(String, String)>, Vec<Tree>),
    }

    fn arb_tree() -> impl Strategy<Value = Tree> {
        let leaf = arb_text().prop_map(Tree::Text);
        leaf.prop_recursive(4, 24, 4, |inner| {
            (
                arb_name(),
                proptest::collection::vec((arb_name(), arb_text()), 0..3).prop_map(|mut v| {
                    v.sort();
                    v.dedup_by(|a, b| a.0 == b.0);
                    v
                }),
                proptest::collection::vec(inner, 0..4),
            )
                .prop_map(|(n, attrs, kids)| Tree::Elem(n, attrs, kids))
        })
    }

    fn build(doc: &mut Document, parent: NodeId, t: &Tree) {
        match t {
            Tree::Text(s) => {
                let n = doc.create_text(s.clone());
                doc.append_child(parent, n);
            }
            Tree::Elem(name, attrs, kids) => {
                let e = doc.create_element(name.clone());
                for (k, v) in attrs {
                    doc.set_attr(e, k.clone(), v.clone());
                }
                doc.append_child(parent, e);
                for k in kids {
                    build(doc, e, k);
                }
            }
        }
    }

    proptest! {
        /// serialize ∘ parse ∘ serialize is the identity on serialized form.
        #[test]
        fn roundtrip_fixpoint(
            name in arb_name(),
            kids in proptest::collection::vec(arb_tree(), 0..5),
        ) {
            let mut doc = Document::new();
            let root = doc.create_element(name);
            doc.append_child(NodeId::DOCUMENT, root);
            for k in &kids {
                build(&mut doc, root, k);
            }
            let s1 = crate::to_string(&doc);
            let reparsed = crate::parse(&s1).unwrap();
            let s2 = crate::to_string(&reparsed);
            prop_assert_eq!(&s1, &s2);
            // And string values agree (text layer preserved exactly).
            let r1 = doc.root_element().unwrap();
            let r2 = reparsed.root_element().unwrap();
            prop_assert_eq!(doc.string_value(r1), reparsed.string_value(r2));
        }

        /// unescape ∘ escape is the identity on arbitrary text.
        #[test]
        fn escape_unescape_identity(t in arb_text()) {
            let escaped = crate::escape::escape_text(&t);
            let un = crate::escape::unescape(
                &escaped,
                &crate::escape::EntityMap::new(),
                crate::error::Pos::start(),
            ).unwrap();
            prop_assert_eq!(un.as_ref(), t.as_str());
        }

        /// Parser never panics on arbitrary ASCII-ish garbage.
        #[test]
        fn parser_total(s in "[ -~]{0,64}") {
            let _ = crate::parse(&s);
        }
    }
}
