//! Workload generation: the corpus, the query texts and the two
//! connections' operation streams, all derived from the seed argument.
//!
//! Everything the daemons receive is generated here, up front, as
//! ready-to-send HTTP requests, so the timed loop only writes bytes and
//! reads responses. The same seed gives byte-identical inputs.

use mhx_corpus::{generate, GeneratorConfig};
use mhx_json::Json;
use multihier_xquery::QueryLang;
use std::collections::HashMap;

/// Closed-loop connections (and load-generator threads).
pub const CONNECTIONS: usize = 2;

/// The named workloads, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["hot_reads", "overlap_analytics", "upload_churn", "routed_reads"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HotReads,
    OverlapAnalytics,
    UploadChurn,
    RoutedReads,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "hot_reads" => Kind::HotReads,
            "overlap_analytics" => Kind::OverlapAnalytics,
            "upload_churn" => Kind::UploadChurn,
            "routed_reads" => Kind::RoutedReads,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::HotReads => "hot_reads",
            Kind::OverlapAnalytics => "overlap_analytics",
            Kind::UploadChurn => "upload_churn",
            Kind::RoutedReads => "routed_reads",
        }
    }

    /// Salt mixed into the seed so workloads sharing a seed still draw
    /// independent streams.
    fn salt(self) -> u64 {
        match self {
            Kind::HotReads | Kind::RoutedReads => 0x4807,
            Kind::OverlapAnalytics => 0x0F1A,
            Kind::UploadChurn => 0xC4A2,
        }
    }
}

/// SplitMix64: tiny, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One query text in one language.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    pub lang: QueryLang,
    pub text: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `POST /query` with the full text.
    Adhoc,
    /// `POST /execute` with this connection-local handle.
    Prepared(u32),
    /// `PUT /documents/{id}` with the doc's next version.
    Upload,
}

/// One generated operation. Query ops carry their request pre-encoded;
/// an upload's body depends on which version is next, so it lives on the
/// document.
pub struct Op {
    pub doc: u16,
    pub kind: OpKind,
    /// Index into [`Workload::queries`] (unused for uploads).
    pub query: u32,
    /// The JSON request body (what the server decodes).
    pub body: String,
    /// The whole HTTP request.
    pub http: Vec<u8>,
}

/// One uploadable version of a document.
pub struct Version {
    pub hierarchies: Vec<(String, String)>,
    pub body: String,
    pub http: Vec<u8>,
}

impl Version {
    pub fn xml_bytes(&self) -> usize {
        self.hierarchies.iter().map(|(_, xml)| xml.len()).sum()
    }
}

pub struct Doc {
    pub id: String,
    /// Version 0 is uploaded at set-up; `upload_churn` cycles through the
    /// rest.
    pub versions: Vec<Version>,
}

pub struct Workload {
    pub kind: Kind,
    pub docs: Vec<Doc>,
    pub queries: Vec<Query>,
    /// Query indices prepared on every connection at set-up; a handle is
    /// the position in this list.
    pub prepared: Vec<u32>,
    pub streams: Vec<Vec<Op>>,
}

/// Query mix of `hot_reads` / `routed_reads`: cheap counts, positional
/// XPath and short FLWORs, half per language.
const HOT_QUERIES: [(QueryLang, &str); 12] = [
    (QueryLang::XPath, "count(/descendant::e0)"),
    (QueryLang::XPath, "/descendant::e1[2]"),
    (QueryLang::XPath, "/descendant::e0[position() = 3]/xfollowing::e1[1]"),
    (QueryLang::XPath, "/descendant::e2[last()]"),
    (QueryLang::XPath, "count(/descendant::e1[overlapping::e0])"),
    (QueryLang::XPath, "/descendant::e2[4]/xpreceding::e0[last()]"),
    (QueryLang::XQuery, "count(/descendant::e1)"),
    (QueryLang::XQuery, "for $x in /descendant::e0[position() <= 3] return string($x)"),
    (
        QueryLang::XQuery,
        "for $x in /descendant::e1[overlapping::e0] let $s := string($x) \
         where string-length($s) > 24 return '#'",
    ),
    (QueryLang::XQuery, "count(/descendant::leaf())"),
    (QueryLang::XQuery, "let $n := count(/descendant::e2) return $n * 2"),
    (QueryLang::XQuery, "for $e in /descendant::e2[position() = 2] return string($e)"),
];

/// Query mix of `overlap_analytics`: extended axes, chain joins, hoisted
/// predicates, a string-testing FLWOR and one `analyze-string`.
const OVERLAP_QUERIES: [(QueryLang, &str); 10] = [
    (QueryLang::XPath, "count(//s0[overlapping::e1])"),
    (QueryLang::XPath, "count(//e0[xfollowing::e1])"),
    (QueryLang::XPath, "count(/descendant::e0/descendant::s0)"),
    (QueryLang::XPath, "count(/descendant::e2[count(/descendant::e1) > 0])"),
    (QueryLang::XPath, "/descendant::s1[xancestor::e0][contains(string(.), 'sceaft')][1]"),
    (QueryLang::XQuery, "count(/descendant::e2[overlapping::e3])"),
    (QueryLang::XQuery, "count(//e1//s1)"),
    (
        QueryLang::XQuery,
        "for $x in /descendant::e1[overlapping::e0] let $s := string($x) \
         where contains($s, 'singa') return string-length($s)",
    ),
    (QueryLang::XQuery, "let $r := analyze-string(root(), 'sceaft') return count($r/child::m)"),
    (QueryLang::XQuery, "count(/descendant::s3[xfollowing::e2])"),
];

/// Fixed texts of `upload_churn` (always plan-cache hits once warm).
const CHURN_QUERIES: [(QueryLang, &str); 6] = [
    (QueryLang::XPath, "count(/descendant::e0)"),
    (QueryLang::XPath, "/descendant::e1[3]"),
    (QueryLang::XPath, "count(//s0[overlapping::e1])"),
    (QueryLang::XQuery, "for $x in /descendant::e0[position() <= 2] return string($x)"),
    (QueryLang::XQuery, "count(/descendant::e2[xfollowing::e1])"),
    (QueryLang::XQuery, "count(/descendant::leaf())"),
];

/// Templates of `upload_churn` with a per-request literal from the doc
/// text: these are the texts that are new to the plan cache.
const CHURN_TEMPLATES: [(QueryLang, &str); 3] = [
    (QueryLang::XPath, "count(/descendant::e0[contains(string(.), 'LIT')])"),
    (
        QueryLang::XQuery,
        "count(for $w in /descendant::e1 where contains(string($w), 'LIT') return $w)",
    ),
    (QueryLang::XPath, "/descendant::e2[contains(string(.), 'LIT')][1]"),
];

/// Share of `upload_churn` operations that re-upload a document.
const CHURN_UPLOAD_SHARE: f64 = 0.10;
/// Share of `upload_churn` queries built from a template.
const CHURN_TEMPLATE_SHARE: f64 = 0.30;
/// Versions per `upload_churn` document (uploads cycle through them).
const CHURN_VERSIONS: usize = 3;
/// Zipf exponent of the `upload_churn` document popularity.
const CHURN_ZIPF: f64 = 1.5;

impl Workload {
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let salted = seed ^ kind.salt().wrapping_mul(0x1000_0000_0001);
        let (doc_count, versions, stream_len) = match kind {
            Kind::HotReads | Kind::RoutedReads => (8, 1, 4096),
            Kind::OverlapAnalytics => (4, 1, 1024),
            Kind::UploadChurn => (24, CHURN_VERSIONS, 4000),
        };
        let docs: Vec<Doc> = (0..doc_count)
            .map(|d| {
                let id = format!("d{d}");
                let versions = (0..versions)
                    .map(|v| make_version(&id, doc_config(kind, salted, d, v)))
                    .collect();
                Doc { id, versions }
            })
            .collect();

        let mut queries = Vec::new();
        let mut index: HashMap<Query, u32> = HashMap::new();
        let mut intern = |lang: QueryLang, text: String| -> u32 {
            let q = Query { lang, text };
            if let Some(&i) = index.get(&q) {
                return i;
            }
            let i = queries.len() as u32;
            index.insert(q.clone(), i);
            queries.push(q);
            i
        };
        let fixed: &[(QueryLang, &str)] = match kind {
            Kind::HotReads | Kind::RoutedReads => &HOT_QUERIES,
            Kind::OverlapAnalytics => &OVERLAP_QUERIES,
            Kind::UploadChurn => &CHURN_QUERIES,
        };
        let fixed_ids: Vec<u32> =
            fixed.iter().map(|&(lang, text)| intern(lang, text.to_string())).collect();
        // Only the read-mostly hot mix goes through prepared handles.
        let prepared: Vec<u32> = match kind {
            Kind::HotReads | Kind::RoutedReads => fixed_ids.clone(),
            _ => Vec::new(),
        };
        let zipf = zipf_cdf(doc_count, CHURN_ZIPF);

        let mut streams = Vec::with_capacity(CONNECTIONS);
        for conn in 0..CONNECTIONS {
            let mut rng = Rng::new(salted ^ (conn as u64 + 1).wrapping_mul(0xA5A5_A5A5));
            let mut ops = Vec::with_capacity(stream_len);
            for _ in 0..stream_len {
                let op = match kind {
                    Kind::HotReads | Kind::RoutedReads => {
                        let doc = rng.below(doc_count);
                        let slot = rng.below(fixed_ids.len());
                        let kind = if rng.below(3) == 0 {
                            OpKind::Prepared(slot as u32)
                        } else {
                            OpKind::Adhoc
                        };
                        (doc, kind, fixed_ids[slot])
                    }
                    Kind::OverlapAnalytics => {
                        (rng.below(doc_count), OpKind::Adhoc, fixed_ids[rng.below(fixed_ids.len())])
                    }
                    Kind::UploadChurn => {
                        if rng.unit() < CHURN_UPLOAD_SHARE {
                            // A connection re-uploads only the documents it
                            // owns, so each document's versions advance in
                            // one thread's order.
                            let doc = loop {
                                let d = sample(&zipf, rng.unit());
                                if d % CONNECTIONS == conn {
                                    break d;
                                }
                            };
                            (doc, OpKind::Upload, 0)
                        } else {
                            let doc = sample(&zipf, rng.unit());
                            let q = if rng.unit() < CHURN_TEMPLATE_SHARE {
                                let (lang, template) =
                                    CHURN_TEMPLATES[rng.below(CHURN_TEMPLATES.len())];
                                let text = &docs[doc].versions[0].hierarchies[0].1;
                                let lit = literal(&mut rng, &plain_text(text));
                                intern(lang, template.replace("LIT", &lit))
                            } else {
                                fixed_ids[rng.below(fixed_ids.len())]
                            };
                            (doc, OpKind::Adhoc, q)
                        }
                    }
                };
                ops.push(op);
            }
            streams.push(ops);
        }
        let streams = streams
            .into_iter()
            .map(|ops| {
                ops.into_iter()
                    .map(|(doc, kind, query)| {
                        let doc_id = &docs[doc].id;
                        let (body, http) = match kind {
                            OpKind::Adhoc => {
                                let q = &queries[query as usize];
                                let body = json_body(vec![
                                    ("lang", Json::Str(q.lang.name().into())),
                                    ("query", Json::Str(q.text.clone())),
                                    ("doc", Json::Str(doc_id.clone())),
                                ]);
                                let http = http_request("POST", "/query", &body);
                                (body, http)
                            }
                            OpKind::Prepared(handle) => {
                                let body = json_body(vec![
                                    ("handle", Json::Num(handle as f64)),
                                    ("doc", Json::Str(doc_id.clone())),
                                ]);
                                let http = http_request("POST", "/execute", &body);
                                (body, http)
                            }
                            OpKind::Upload => (String::new(), Vec::new()),
                        };
                        Op { doc: doc as u16, kind, query, body, http }
                    })
                    .collect()
            })
            .collect();
        Workload { kind, docs, queries, prepared, streams }
    }

    /// The HTTP request preparing query `q` on a connection.
    pub fn prepare_request(&self, q: u32) -> Vec<u8> {
        let q = &self.queries[q as usize];
        let body = json_body(vec![
            ("lang", Json::Str(q.lang.name().into())),
            ("query", Json::Str(q.text.clone())),
        ]);
        http_request("POST", "/prepare", &body)
    }

    #[cfg(test)]
    /// Every byte the daemons can be sent, in a fixed order (for the
    /// same-seed-same-inputs check).
    pub fn input_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for doc in &self.docs {
            for v in &doc.versions {
                out.extend_from_slice(&v.http);
            }
        }
        for &q in &self.prepared {
            out.extend_from_slice(&self.prepare_request(q));
        }
        for ops in &self.streams {
            for op in ops {
                out.extend_from_slice(&op.http);
            }
        }
        out
    }
}

fn doc_config(kind: Kind, seed: u64, doc: usize, version: usize) -> GeneratorConfig {
    let seed = Rng::new(seed ^ ((doc as u64) << 20) ^ ((version as u64) << 40)).next_u64();
    match kind {
        // ~1.2k chars, 3 hierarchies.
        Kind::HotReads | Kind::RoutedReads => GeneratorConfig {
            seed,
            text_len: 1_200,
            hierarchies: 3,
            avg_element_len: 30,
            boundary_jitter: 0.7,
            nested: false,
        },
        // ~24k chars, 4 nested hierarchies, jitter 0.8.
        Kind::OverlapAnalytics => GeneratorConfig {
            seed,
            text_len: 24_000,
            hierarchies: 4,
            avg_element_len: 25,
            boundary_jitter: 0.8,
            nested: true,
        },
        // ~6k chars, 4 nested hierarchies.
        Kind::UploadChurn => GeneratorConfig {
            seed,
            text_len: 6_000,
            hierarchies: 4,
            avg_element_len: 25,
            boundary_jitter: 0.8,
            nested: true,
        },
    }
}

fn make_version(id: &str, config: GeneratorConfig) -> Version {
    let doc = generate(&config);
    let items = doc
        .encodings
        .iter()
        .map(|(name, xml)| {
            Json::Obj(vec![
                ("name".into(), Json::Str(name.clone())),
                ("xml".into(), Json::Str(xml.clone())),
            ])
        })
        .collect();
    let body = json_body(vec![("hierarchies", Json::Arr(items))]);
    let http = http_request("PUT", &format!("/documents/{id}"), &body);
    Version { hierarchies: doc.encodings, body, http }
}

fn json_body(fields: Vec<(&str, Json)>) -> String {
    let mut out = String::new();
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).write_into(&mut out);
    out
}

fn http_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// The character data of one hierarchy's XML (tags dropped).
fn plain_text(xml: &str) -> String {
    let mut out = String::with_capacity(xml.len());
    let mut in_tag = false;
    for c in xml.chars() {
        match c {
            '<' => in_tag = true,
            '>' => in_tag = false,
            c if !in_tag => out.push(c),
            _ => {}
        }
    }
    out
}

/// A 3–5 character substring of `text` with no spaces at its ends.
fn literal(rng: &mut Rng, text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    loop {
        let len = 3 + rng.below(3);
        let start = rng.below(chars.len() - len);
        let lit: String = chars[start..start + len].iter().collect();
        if !lit.starts_with(' ') && !lit.ends_with(' ') && !lit.contains(['\'', '&', '<']) {
            return lit;
        }
    }
}

/// Cumulative Zipf weights over `n` ranks.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn sample(cdf: &[f64], u: f64) -> usize {
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for name in NAMES {
            let kind = Kind::parse(name).unwrap();
            let a = Workload::generate(kind, 7).input_bytes();
            let b = Workload::generate(kind, 7).input_bytes();
            assert!(a == b, "{name}: same seed, different inputs");
            let c = Workload::generate(kind, 8).input_bytes();
            assert!(a != c, "{name}: different seeds, same inputs");
        }
    }

    #[test]
    fn churn_mix_has_uploads_and_fresh_texts() {
        let w = Workload::generate(Kind::UploadChurn, 3);
        let ops: Vec<&Op> = w.streams.iter().flatten().collect();
        let uploads = ops.iter().filter(|op| op.kind == OpKind::Upload).count();
        let share = uploads as f64 / ops.len() as f64;
        assert!((0.07..0.13).contains(&share), "upload share {share}");
        for (conn, ops) in w.streams.iter().enumerate() {
            for op in ops.iter().filter(|op| op.kind == OpKind::Upload) {
                assert_eq!(op.doc as usize % CONNECTIONS, conn, "uploads stay with the owner");
            }
        }
        assert!(w.queries.len() > 1000, "only {} distinct texts", w.queries.len());
    }
}
