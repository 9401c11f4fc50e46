//! The answer oracle: the expected serialized answer of every (document
//! version, query text) the op streams can ask for, computed in-process by
//! a reference [`Catalog`] with no store and no memory budget.

use crate::workload::{OpKind, Workload, CONNECTIONS};
use multihier_xquery::goddag::GoddagBuilder;
use multihier_xquery::Catalog;
use std::collections::{BTreeSet, HashMap};

/// `(document, version, query)`.
type Key = (u16, u8, u32);

#[derive(Clone)]
pub struct Oracle {
    expected: HashMap<Key, String>,
    /// Mean goddag node count over every document version.
    pub nodes_per_doc: f64,
}

impl Oracle {
    pub fn build(w: &Workload) -> Result<Oracle, String> {
        let catalog = Catalog::new();
        let mut nodes = 0usize;
        let mut versions = 0usize;
        for (d, doc) in w.docs.iter().enumerate() {
            for (v, version) in doc.versions.iter().enumerate() {
                let mut b = GoddagBuilder::new();
                for (name, xml) in &version.hierarchies {
                    b = b.hierarchy(name.clone(), xml.clone());
                }
                let g = b.build().map_err(|e| format!("doc {d} v{v}: {e}"))?;
                nodes += g.all_nodes().len();
                versions += 1;
                catalog.insert(ref_id(d, v), g);
            }
        }
        let pairs: BTreeSet<(u16, u32)> = w
            .streams
            .iter()
            .flatten()
            .filter(|op| op.kind != OpKind::Upload)
            .map(|op| (op.doc, op.query))
            .collect();
        let jobs: Vec<Key> = pairs
            .into_iter()
            .flat_map(|(d, q)| (0..w.docs[d as usize].versions.len()).map(move |v| (d, v as u8, q)))
            .collect();
        let chunk = jobs.len().div_ceil(CONNECTIONS).max(1);
        let results: Vec<Result<Vec<(Key, String)>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .chunks(chunk)
                .map(|part| {
                    let catalog = &catalog;
                    s.spawn(move || {
                        part.iter()
                            .map(|&(d, v, q)| {
                                let query = &w.queries[q as usize];
                                catalog
                                    .query(&ref_id(d as usize, v as usize), query.lang, &query.text)
                                    .map(|out| ((d, v, q), out.serialize().to_string()))
                                    .map_err(|e| format!("`{}` on d{d} v{v}: {e}", query.text))
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("oracle thread panicked")).collect()
        });
        let mut expected = HashMap::with_capacity(jobs.len());
        for part in results {
            expected.extend(part?);
        }
        Ok(Oracle { expected, nodes_per_doc: nodes as f64 / versions.max(1) as f64 })
    }

    pub fn expected(&self, doc: u16, version: u8, query: u32) -> &str {
        self.expected
            .get(&(doc, version, query))
            .map(String::as_str)
            .expect("every streamed (doc, query) pair has an expectation")
    }

    /// Replace one expectation (the self-test that proves a wrong answer
    /// is caught).
    pub fn corrupt(&mut self, doc: u16, version: u8, query: u32) {
        if let Some(s) = self.expected.get_mut(&(doc, version, query)) {
            s.push_str("<corrupted/>");
        }
    }

    pub fn len(&self) -> usize {
        self.expected.len()
    }
}

fn ref_id(doc: usize, version: usize) -> String {
    format!("d{doc}@{version}")
}
