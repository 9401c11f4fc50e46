//! The paper's Figure 1: a fragment of Cotton Otho A. vi (King Alfred's
//! Old English translation of Boethius), encoded in four concurrent
//! hierarchies, plus the §4 queries and their expected outputs.
//!
//! The thorn glyph prints variously as `ϸ`/`D` in the paper's OCR; we use
//! U+00FE `þ`, the letter the manuscript has, throughout.

use mhx_goddag::{Cmh, Goddag, GoddagBuilder};
use mhx_xml::Document;

/// The base text `S` (51 characters, 52 bytes).
pub const TEXT: &str = "gesceaftum unawendendne singallice sibbe gecynde þa";

/// Physical manuscript organization: `<line>`.
pub const LINES: &str =
    "<r><line>gesceaftum unawendendne sin</line><line>gallice sibbe gecynde þa</line></r>";

/// Document structure: `<vline>` (verse lines) and `<w>` (words).
pub const WORDS: &str = "<r><vline><w>gesceaftum</w> <w>unawendendne</w> </vline><vline><w>singallice</w> <w>sibbe</w> <w>gecynde</w> </vline><vline><w>þa</w></vline></r>";

/// Editorial restorations: `<res>`.
pub const RESTORATIONS: &str =
    "<r><res>gesceaftum una</res>wendendne s<res>in</res><res>gallice sibbe gecyn</res>de þa</r>";

/// Manuscript condition: `<dmg>` (damage).
pub const DAMAGE: &str =
    "<r>gesceaftum una<dmg>w</dmg>endendne singallice sibbe gecyn<dmg>de þa</dmg></r>";

/// `(hierarchy name, encoding)` in the paper's order.
pub const ENCODINGS: [(&str, &str); 4] =
    [("lines", LINES), ("words", WORDS), ("restorations", RESTORATIONS), ("damage", DAMAGE)];

/// The 16 leaves of Figure 2, in order.
pub const LEAVES: [&str; 16] = [
    "gesceaftum",
    " ",
    "una",
    "w",
    "endendne",
    " ",
    "s",
    "in",
    "gallice",
    " ",
    "sibbe",
    " ",
    "gecyn",
    "de",
    " ",
    "þa",
];

/// Build the Figure-1 KyGODDAG.
pub fn goddag() -> Goddag {
    let mut b = GoddagBuilder::new();
    for (name, src) in ENCODINGS {
        b = b.hierarchy(name, src);
    }
    b.build().expect("the Figure-1 corpus is well-formed and text-consistent")
}

/// The four encodings as parsed documents.
pub fn documents() -> Vec<Document> {
    ENCODINGS.iter().map(|(_, src)| mhx_xml::parse(src).expect("static corpus parses")).collect()
}

/// The Figure-1 CMH (four DTDs over root `r`).
pub fn cmh() -> Cmh {
    mhx_goddag::cmh::figure1_cmh()
}

/// Paper query I.1 (verbatim semantics) and its expected output.
pub const QUERY_I1: &str = "for $l in /descendant::line\
 [xdescendant::w[string(.) = 'singallice'] or \
 overlapping::w[string(.) = 'singallice']] return string($l)";

pub const EXPECTED_I1: &str = "gesceaftum unawendendne singallice sibbe gecynde þa";

/// Paper query I.2 in the word-level variant that reproduces the printed
/// output: the printed output bolds every leaf of a word that touches
/// damage, which the literally-printed per-leaf predicate
/// ([`QUERY_I2_STRICT`]) does not.
pub const QUERY_I2: &str = "for $l in /descendant::line[xdescendant::w[xancestor::dmg or \
 xdescendant::dmg or overlapping::dmg]] \
 return ( for $leaf in $l/descendant::leaf() return \
 if ($leaf[ancestor::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]) \
 then <b>{$leaf}</b> else $leaf , <br/> )";

pub const EXPECTED_I2: &str = "gesceaftum <b>una</b><b>w</b><b>endendne</b> sin<br/>gallice sibbe <b>gecyn</b><b>de</b> <b>þa</b><br/>";

/// Paper query I.2 with the literally-printed predicate (strict semantics).
pub const QUERY_I2_STRICT: &str = "for $l in /descendant::line[xdescendant::w[xancestor::dmg or \
 xdescendant::dmg or overlapping::dmg]] \
 return ( for $leaf in $l/descendant::leaf() return \
 if ($leaf[ancestor::w and ancestor::dmg]) then <b>{$leaf}</b> else $leaf , <br/> )";

pub const EXPECTED_I2_STRICT: &str =
    "gesceaftum una<b>w</b>endendne sin<br/>gallice sibbe gecyn<b>de</b> <b>þa</b><br/>";

/// Paper query II.1 with the printed `child::*`/`parent::m` read as
/// `child::node()`/`self::m`: `child::*` would drop the unmatched text that
/// the printed output shows, and a child is bolded when it *is* the match.
pub const QUERY_II1: &str = "for $w in /descendant::w[matches(string(.), '.*unawe.*')] \
 return ( \
 let $res := analyze-string($w, '.*unawe.*') \
 for $n in $res/child::node() return \
 if ($n[self::m]) then <b>{string($n)}</b> else string($n) , <br/> )";

pub const EXPECTED_II1: &str = "<b>unawe</b>ndendne<br/>";

/// Paper query III.1, strict Definition-1 semantics. The paper's printed
/// string does not follow from its own markup (its closest consistent
/// reading italicizes the whole match), while strict leaves keep `una|w|e`
/// apart and put only `una` in a restoration.
pub const QUERY_III1: &str = "for $w in /descendant::w[matches(string(.), '.*unawe.*')] \
 return ( \
 let $res := analyze-string($w, '.*unawe.*') \
 for $leaf in $res/descendant::leaf() return \
 if ($leaf/xancestor::m and $leaf/ancestor::res(\"restorations\")) \
 then <i><b>{$leaf}</b></i> \
 else if ($leaf/xancestor::m) then <b>{$leaf}</b> \
 else $leaf , <br/> )";

pub const EXPECTED_III1: &str = "<i><b>una</b></i><b>w</b><b>e</b>ndendne<br/>";

/// Definition 4, Example 1: the XML-fragment pattern call.
pub const QUERY_EX1: &str = "let $w := (/descendant::w)[2] return \
 serialize(analyze-string($w, '.*un<a>a</a>we.*'))";

pub const EXPECTED_EX1: &str = "<res><m>un<a>a</a>we</m>ndendne</res>";

/// Every (id, query, expected) triple for the repro harness.
pub const PAPER_QUERIES: [(&str, &str, &str); 6] = [
    ("I.1", QUERY_I1, EXPECTED_I1),
    ("I.2", QUERY_I2, EXPECTED_I2),
    ("I.2-strict", QUERY_I2_STRICT, EXPECTED_I2_STRICT),
    ("II.1", QUERY_II1, EXPECTED_II1),
    ("III.1", QUERY_III1, EXPECTED_III1),
    ("Ex.1", QUERY_EX1, EXPECTED_EX1),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_consistent() {
        let g = goddag();
        assert_eq!(g.text(), TEXT);
        assert_eq!(g.hierarchy_count(), 4);
        assert_eq!(g.leaf_count(), 16);
        let leaf_texts: Vec<&str> = g.leaves().iter().map(|&l| g.string_value(l)).collect();
        assert_eq!(leaf_texts, LEAVES);
    }

    #[test]
    fn documents_validate_against_cmh() {
        cmh().validate_documents(&documents()).unwrap();
    }

    #[test]
    fn all_paper_queries_reproduce() {
        let g = goddag();
        for (id, query, expected) in PAPER_QUERIES {
            let out =
                mhx_xquery::run_query(&g, query).unwrap_or_else(|e| panic!("query {id}: {e}"));
            assert_eq!(out, expected, "query {id}");
        }
    }

    #[test]
    fn encodings_roundtrip_through_serializer() {
        for (name, src) in ENCODINGS {
            let doc = mhx_xml::parse(src).unwrap();
            assert_eq!(mhx_xml::to_string(&doc), src, "{name}");
        }
    }
}
