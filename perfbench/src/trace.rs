//! The traced run: the same generated operations replayed in-process,
//! single-threaded, through each layer's public functions, with a span
//! around every layer call. Spans live in memory and are written out when
//! the run ends; no tracing code runs inside the program.

use crate::oracle::Oracle;
use crate::workload::{Op, OpKind, Workload};
use mhx_json::Json;
use multihier_xquery::goddag::{GoddagBuilder, StructIndex};
use multihier_xquery::{Catalog, Prepared, QueryLang, QueryOutcome, QueryValue};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed layer call. `parent` indexes the enclosing span; spans of
/// one operation share `op`.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

/// In-memory span recorder. With `on == false` every call is a no-op, so
/// the same replay code measures the tracing overhead.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
}

const NO_SPAN: u32 = u32::MAX;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: u32, op: u32) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.now();
        let parent = (parent != NO_SPAN).then_some(parent);
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        (self.spans.len() - 1) as u32
    }

    /// Close span `id`, optionally renaming it once the outcome is known
    /// (a plan lookup that turned out to compile, a residency check that
    /// loaded a snapshot).
    pub fn end(&mut self, id: u32, rename: Option<&'static str>) {
        if id == NO_SPAN {
            return;
        }
        let now = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        if let Some(name) = rename {
            span.name = name;
        }
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        out.flush()
    }
}

/// Per-span self time: duration minus the part covered by child spans.
/// Returns `(self_ns per span, violations)`, where a violation is a span
/// that does not nest inside its parent or whose self time exceeds its
/// op's span.
fn self_times(spans: &[Span]) -> (Vec<u64>, usize) {
    let mut covered = vec![0u64; spans.len()];
    let mut violations = 0;
    let mut root_of = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => {
                let p = p as usize;
                root_of[i] = root_of[p];
                let parent = &spans[p];
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns || s.op != parent.op {
                    violations += 1;
                }
                covered[p] += s.end_ns - s.start_ns;
            }
            None => root_of[i] = i,
        }
    }
    let selfs: Vec<u64> = spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let root = &spans[root_of[i]];
        if covered[i] > dur || selfs[i] > root.end_ns - root.start_ns {
            violations += 1;
        }
    }
    (selfs, violations)
}

/// The in-process replica of one daemon, fed the workload's operations.
pub struct Replay<'a> {
    w: &'a Workload,
    oracle: &'a Oracle,
    catalog: Catalog,
    prepared: Vec<Prepared>,
    /// Upload sequence number per document (version = seq % versions).
    seqs: Vec<u64>,
    next_op: u32,
    pub xml_bytes_parsed: u64,
    pub result_bytes: u64,
    pub queries: u64,
    pub wrong: Vec<String>,
}

impl<'a> Replay<'a> {
    /// A fresh catalog, configured like the daemon (data dir + budget
    /// when given), holding version 0 of every document uploaded through
    /// the traced upload path.
    pub fn new(
        w: &'a Workload,
        oracle: &'a Oracle,
        store: Option<(&Path, u64)>,
        tr: &mut Tracer,
    ) -> Result<Replay<'a>, String> {
        let catalog = Catalog::new();
        if let Some((dir, budget)) = store {
            catalog.attach_store(dir, Some(budget)).map_err(|e| e.to_string())?;
        }
        let mut r = Replay {
            w,
            oracle,
            catalog,
            prepared: Vec::new(),
            seqs: vec![0; w.docs.len()],
            next_op: 0,
            xml_bytes_parsed: 0,
            result_bytes: 0,
            queries: 0,
            wrong: Vec::new(),
        };
        for d in 0..w.docs.len() {
            r.upload(tr, d, 0)?;
        }
        for &q in &w.prepared {
            let q = &w.queries[q as usize];
            r.prepared.push(r.catalog.prepare(q.lang, &q.text).map_err(|e| e.to_string())?);
        }
        Ok(r)
    }

    pub fn run(&mut self, tr: &mut Tracer, op: &Op) -> Result<(), String> {
        match op.kind {
            OpKind::Upload => {
                let d = op.doc as usize;
                let seq = self.seqs[d] + 1;
                self.upload(tr, d, (seq % self.w.docs[d].versions.len() as u64) as usize)?;
                self.seqs[d] = seq;
                Ok(())
            }
            _ => self.query(tr, op),
        }
    }

    fn op_id(&mut self) -> u32 {
        self.next_op += 1;
        self.next_op - 1
    }

    /// `PUT /documents/{id}`: decode, parse each hierarchy, build the
    /// goddag and its index, persist/register, encode the reply.
    fn upload(&mut self, tr: &mut Tracer, d: usize, version: usize) -> Result<(), String> {
        let op = self.op_id();
        let doc = &self.w.docs[d];
        let root = tr.begin("op.upload", NO_SPAN, op);

        let s = tr.begin("json.decode", root, op);
        let body = mhx_json::parse(&doc.versions[version].body)?;
        tr.end(s, None);

        let hierarchies = body.get("hierarchies").and_then(Json::as_arr).ok_or("no hierarchies")?;
        let mut builder = GoddagBuilder::new();
        for h in hierarchies {
            let name = h.get("name").and_then(Json::as_str).ok_or("no name")?;
            let xml = h.get("xml").and_then(Json::as_str).ok_or("no xml")?;
            let s = tr.begin("xml.parse", root, op);
            let parsed = mhx_xml::parse(xml).map_err(|e| e.to_string())?;
            tr.end(s, None);
            self.xml_bytes_parsed += xml.len() as u64;
            builder = builder.hierarchy_doc(name, parsed);
        }

        let s = tr.begin("goddag.build", root, op);
        let g = builder.build().map_err(|e| e.to_string())?;
        tr.end(s, None);

        // Measured alone: `Catalog::put` builds the index again before
        // saving, so `store.save_us` subtracts this span from the put.
        let s = tr.begin("index.build", root, op);
        black_box(StructIndex::build(&g));
        tr.end(s, None);

        let s = tr.begin("store.put", root, op);
        self.catalog.put(doc.id.clone(), g).map_err(|e| e.to_string())?;
        tr.end(s, None);

        let s = tr.begin("json.encode", root, op);
        let mut out = String::new();
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("id".into(), Json::Str(doc.id.clone())),
            ("hierarchies".into(), Json::Num(hierarchies.len() as f64)),
        ])
        .write_into(&mut out);
        black_box(out);
        tr.end(s, None);

        tr.end(root, None);
        Ok(())
    }

    /// `POST /query` or `/execute`: decode, look up or compile the plan,
    /// make the document resident, evaluate, encode the reply.
    fn query(&mut self, tr: &mut Tracer, op: &Op) -> Result<(), String> {
        let id = self.op_id();
        let doc = &self.w.docs[op.doc as usize].id;
        let root = tr.begin("op.query", NO_SPAN, id);

        let s = tr.begin("json.decode", root, id);
        let body = mhx_json::parse(&op.body)?;
        tr.end(s, None);

        let adhoc;
        let prepared = match op.kind {
            OpKind::Prepared(_) => {
                let handle = body.get("handle").and_then(Json::as_u64).ok_or("no handle")?;
                &self.prepared[handle as usize]
            }
            _ => {
                let text = body.get("query").and_then(Json::as_str).ok_or("no query")?;
                let lang = match body.get("lang").and_then(Json::as_str) {
                    Some("xpath") => QueryLang::XPath,
                    _ => QueryLang::XQuery,
                };
                let misses = self.catalog.cache_stats().misses;
                let s = tr.begin("plan.lookup", root, id);
                let p = self.catalog.prepare(lang, text).map_err(|e| e.to_string())?;
                let compiled = self.catalog.cache_stats().misses > misses;
                tr.end(s, compiled.then_some("plan.compile"));
                adhoc = p;
                &adhoc
            }
        };

        let loads = self.catalog.store_stats().loads;
        let s = tr.begin("store.resident", root, id);
        self.catalog.with_document(doc, |_| ()).map_err(|e| e.to_string())?;
        let loaded = self.catalog.store_stats().loads > loads;
        tr.end(s, loaded.then_some("store.load"));

        let name = match prepared.lang() {
            QueryLang::XPath => "eval.xpath",
            QueryLang::XQuery => "eval.xquery",
        };
        let s = tr.begin(name, root, id);
        let out = self.catalog.execute(doc, prepared).map_err(|e| e.to_string())?;
        tr.end(s, None);

        let s = tr.begin("json.encode", root, id);
        let mut encoded = String::new();
        outcome_json(&out).write_into(&mut encoded);
        tr.end(s, None);
        tr.end(root, None);

        self.queries += 1;
        self.result_bytes += out.serialize().len() as u64;
        let version =
            (self.seqs[op.doc as usize] % self.w.docs[op.doc as usize].versions.len() as u64) as u8;
        if out.serialize() != self.oracle.expected(op.doc, version, op.query) {
            self.wrong.push(format!("replay d{} query #{}", op.doc, op.query));
        }
        black_box(encoded);
        Ok(())
    }
}

/// The success envelope the daemon writes for a query outcome.
fn outcome_json(out: &QueryOutcome) -> Json {
    let mut entries = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("lang".to_string(), Json::Str(out.lang().name().into())),
    ];
    let kind = match out.value() {
        QueryValue::Nodes(ns) => {
            entries.push(("count".into(), Json::Num(ns.len() as f64)));
            "nodes"
        }
        QueryValue::Str(_) => "string",
        QueryValue::Num(n) => {
            entries.push(("value".into(), Json::Num(*n)));
            "number"
        }
        QueryValue::Bool(b) => {
            entries.push(("value".into(), Json::Bool(*b)));
            "boolean"
        }
        QueryValue::Markup(_) => "markup",
    };
    entries.insert(2, ("kind".into(), Json::Str(kind.into())));
    entries.push(("serialized".into(), Json::Str(out.serialize().into())));
    Json::Obj(entries)
}

/// The two connections' streams interleaved op by op: the replay order.
pub fn interleaved(w: &Workload) -> Vec<&Op> {
    let longest = w.streams.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest).flat_map(|i| w.streams.iter().filter_map(move |s| s.get(i))).collect()
}

/// Replay `ops` in order until they run out or `budget` elapses.
pub fn replay_for(
    r: &mut Replay<'_>,
    tr: &mut Tracer,
    ops: &[&Op],
    budget: Duration,
) -> Result<usize, String> {
    let until = Instant::now() + budget;
    for (n, op) in ops.iter().enumerate() {
        if Instant::now() >= until {
            return Ok(n);
        }
        r.run(tr, op)?;
    }
    Ok(ops.len())
}

/// Self times grouped by span name (ns), plus per-op details the
/// derived metrics need.
pub struct Layers {
    pub by_name: BTreeMap<&'static str, Vec<f64>>,
    /// `store.put` minus `index.build`, per upload op.
    pub save_ns: Vec<f64>,
    pub violations: usize,
}

pub fn layers(spans: &[Span]) -> Layers {
    let (selfs, violations) = self_times(spans);
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut put: BTreeMap<u32, f64> = BTreeMap::new();
    let mut index: BTreeMap<u32, f64> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let dur = (s.end_ns - s.start_ns) as f64;
        // Op spans report their whole duration (the in-process op time);
        // layer spans report self time.
        let value = if s.parent.is_none() { dur } else { own as f64 };
        by_name.entry(s.name).or_default().push(value);
        match s.name {
            "store.put" => {
                put.insert(s.op, dur);
            }
            "index.build" => {
                index.insert(s.op, dur);
            }
            _ => {}
        }
    }
    let save_ns = put.iter().map(|(op, p)| p - index.get(op).copied().unwrap_or(0.0)).collect();
    Layers { by_name, save_ns, violations }
}
