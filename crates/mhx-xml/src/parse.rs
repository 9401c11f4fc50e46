//! Tree builder: [`Reader`] events → [`Document`], with well-formedness
//! checks (balanced tags, single root element).

use crate::dom::{Document, NodeId};
use crate::error::{ErrorKind, Result, XmlError};
use crate::escape::EntityMap;
use crate::reader::{Event, Reader};

/// The deepest element nesting [`parse`] accepts; one more level is an
/// [`XmlError`]. The builder itself is iterative, but a document's
/// consumers (KyGODDAG construction, serialization, hierarchy export)
/// recurse once per level, so this bounds their stack use whatever the
/// input — an uploaded document arrives off the network. A `MAX_DEPTH`-deep
/// document fits a 2 MiB thread stack through all of them;
/// document-centric markup nests a few dozen levels at most.
pub const MAX_DEPTH: usize = 1024;

/// Parsing knobs.
#[derive(Debug, Clone, Default)]
pub struct ParseOptions {
    /// Keep comment nodes (default: true).
    pub drop_comments: bool,
    /// Keep processing instructions (default: true).
    pub drop_pis: bool,
    /// Extra general entities, merged with any declared in the internal
    /// subset.
    pub entities: EntityMap,
}

/// Parse a complete document.
pub fn parse(src: &str) -> Result<Document> {
    parse_with(src, ParseOptions::default())
}

/// Parse with options.
pub fn parse_with(src: &str, opts: ParseOptions) -> Result<Document> {
    let mut reader = Reader::with_entities(src, opts.entities.clone());
    let mut doc = Document::new();
    let mut stack: Vec<NodeId> = vec![NodeId::DOCUMENT];
    let mut root_seen = false;

    loop {
        let pos = reader.pos();
        match reader.next_event()? {
            Event::Eof => break,
            Event::Doctype { name, internal_subset } => {
                doc.doctype_name = Some(name);
                if let Some(subset) = internal_subset {
                    // Pull entity declarations out of the internal subset so
                    // references later in the document resolve.
                    for (ename, evalue) in crate::dtd::scan_entities(&subset)? {
                        reader.add_entity(ename, evalue);
                    }
                }
            }
            Event::StartTag { name, attrs, self_closing } => {
                // `stack` holds the open elements above the document node.
                if stack.len() > MAX_DEPTH {
                    return Err(XmlError::new(
                        ErrorKind::Other(format!("elements nested deeper than {MAX_DEPTH}")),
                        pos,
                    ));
                }
                let parent = *stack.last().expect("stack never empty");
                if parent == NodeId::DOCUMENT {
                    if root_seen {
                        return Err(XmlError::new(ErrorKind::MultipleRootElements, pos));
                    }
                    root_seen = true;
                }
                let el = doc.create_element(name);
                for a in attrs {
                    doc.set_attr(el, a.name, a.value);
                }
                doc.append_child(parent, el);
                if !self_closing {
                    stack.push(el);
                }
            }
            Event::EndTag { name } => {
                let top = *stack.last().expect("stack never empty");
                if top == NodeId::DOCUMENT {
                    return Err(XmlError::new(ErrorKind::UnopenedTag(name), pos));
                }
                let open = doc.name(top).unwrap_or_default().to_string();
                if open != name {
                    return Err(XmlError::new(ErrorKind::MismatchedTag { open, close: name }, pos));
                }
                stack.pop();
            }
            Event::Text(t) => {
                let parent = *stack.last().expect("stack never empty");
                if parent == NodeId::DOCUMENT {
                    // Only whitespace is allowed outside the root element.
                    if !t.chars().all(crate::cursor::is_xml_ws) {
                        return Err(XmlError::new(
                            ErrorKind::Other("text outside the root element".into()),
                            pos,
                        ));
                    }
                } else {
                    let n = doc.create_text(t);
                    doc.append_child(parent, n);
                }
            }
            Event::CData(t) => {
                let parent = *stack.last().expect("stack never empty");
                if parent == NodeId::DOCUMENT {
                    return Err(XmlError::new(
                        ErrorKind::Other("CDATA outside the root element".into()),
                        pos,
                    ));
                }
                let n = doc.create_text(t);
                doc.append_child(parent, n);
            }
            Event::Comment(t) => {
                if !opts.drop_comments {
                    let parent = *stack.last().expect("stack never empty");
                    let n = doc.create_comment(t);
                    doc.append_child(parent, n);
                }
            }
            Event::Pi { target, data } => {
                if !opts.drop_pis {
                    let parent = *stack.last().expect("stack never empty");
                    let n = doc.create_pi(target, data);
                    doc.append_child(parent, n);
                }
            }
        }
    }

    if stack.len() > 1 {
        let top = *stack.last().unwrap();
        let name = doc.name(top).unwrap_or_default().to_string();
        return Err(XmlError::new(ErrorKind::UnclosedTag(name), reader.pos()));
    }
    if !root_seen {
        return Err(XmlError::new(ErrorKind::NoRootElement, reader.pos()));
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::NodeKind;

    #[test]
    fn parses_figure1_line_encoding() {
        let src = "<r><line>gesceaftum unawendendne sin</line><line>gallice sibbe gecynde \
                   \u{fe}a</line></r>";
        let d = parse(src).unwrap();
        let r = d.root_element().unwrap();
        let lines: Vec<_> = d.children(r).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(d.string_value(r), "gesceaftum unawendendne singallice sibbe gecynde þa");
    }

    #[test]
    fn mismatched_tags_error() {
        let e = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(e.kind, ErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn unclosed_tag_error() {
        let e = parse("<a><b>").unwrap_err();
        assert!(matches!(e.kind, ErrorKind::UnclosedTag(_)));
    }

    #[test]
    fn extra_end_tag_error() {
        let e = parse("<a/></a>").unwrap_err();
        assert!(matches!(e.kind, ErrorKind::UnopenedTag(_)));
    }

    #[test]
    fn multiple_roots_error() {
        let e = parse("<a/><b/>").unwrap_err();
        assert_eq!(e.kind, ErrorKind::MultipleRootElements);
    }

    #[test]
    fn no_root_error() {
        assert!(parse("").is_err());
        assert!(parse("<!-- only a comment -->").is_err());
    }

    #[test]
    fn whitespace_around_root_is_fine() {
        let d = parse("\n  <a/>  \n").unwrap();
        assert!(d.root_element().is_ok());
    }

    #[test]
    fn text_outside_root_rejected() {
        assert!(parse("x<a/>").is_err());
        assert!(parse("<a/>x").is_err());
    }

    #[test]
    fn internal_subset_entities_resolve() {
        let src = r#"<!DOCTYPE r [<!ENTITY thorn "&#xFE;">]><r>&thorn;a</r>"#;
        let d = parse(src).unwrap();
        let r = d.root_element().unwrap();
        assert_eq!(d.string_value(r), "þa");
        assert_eq!(d.doctype_name.as_deref(), Some("r"));
    }

    #[test]
    fn comments_kept_by_default_dropped_on_request() {
        let src = "<a><!--c--></a>";
        let d = parse(src).unwrap();
        let r = d.root_element().unwrap();
        assert_eq!(d.children(r).count(), 1);
        let d2 =
            parse_with(src, ParseOptions { drop_comments: true, ..Default::default() }).unwrap();
        let r2 = d2.root_element().unwrap();
        assert_eq!(d2.children(r2).count(), 0);
    }

    #[test]
    fn cdata_becomes_text() {
        let d = parse("<a><![CDATA[<b>&]]></a>").unwrap();
        let r = d.root_element().unwrap();
        let c = d.first_child(r).unwrap();
        assert!(matches!(d.kind(c), NodeKind::Text(t) if t == "<b>&"));
    }

    #[test]
    fn adjacent_text_and_cdata_stay_separate_nodes() {
        let d = parse("<a>x<![CDATA[y]]>z</a>").unwrap();
        let r = d.root_element().unwrap();
        assert_eq!(d.children(r).count(), 3);
        assert_eq!(d.string_value(r), "xyz");
    }

    #[test]
    fn node_ids_are_in_document_order() {
        let d = parse("<r><a>x</a><b><c/></b>tail</r>").unwrap();
        let order = d.document_order();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted, "parser must allocate ids in preorder");
    }
}
