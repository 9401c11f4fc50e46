//! E14 — catalog serving: N documents × M shared query texts.
//!
//! Measures the multi-document `Catalog` against the pre-catalog shape
//! (one engine + one private plan cache per document) on the same corpus
//! and workload, and the shared cache's cross-document hit rate. The
//! machine-readable snapshot goes to `BENCH_catalog.json` at the
//! workspace root.
//!
//! The workload models corpus-scale serving: every query text runs
//! against every document (an electronic edition asks the same questions
//! of each manuscript), repeated over several rounds — plan compilation
//! amortizes across the whole corpus exactly once under the shared cache,
//! once *per document* under private caches.

use criterion::{criterion_group, criterion_main, Criterion};
use mhx_bench::snapshot::{self, rounded, Metric};
use mhx_corpus::{generate, GeneratorConfig};
use mhx_goddag::Goddag;
use multihier_xquery::prelude::{Catalog, Engine};
use std::hint::black_box;
use std::time::{Duration, Instant};

const N_DOCS: usize = 8;
const ROUNDS: usize = 3;

/// Mixed workload: extended-axis paths, FLWOR, aggregation — all
/// document-independent texts, half XPath, half XQuery.
const XPATH_QUERIES: [&str; 3] = [
    "/descendant::e1[overlapping::e0]",
    "count(/descendant::e0)",
    "/descendant::e0[1]/xfollowing::e1",
];
const XQUERY_QUERIES: [&str; 3] = [
    "for $x in /descendant::e1[overlapping::e0] return (string($x), '|')",
    "count(/descendant::e2[xancestor::e0])",
    "for $x in /descendant::e0 where string-length(string($x)) > 20 return '#'",
];

/// N distinct documents (different seeds → different texts and overlap
/// patterns), same schema so the same queries make sense everywhere.
fn corpus_docs() -> Vec<Goddag> {
    (0..N_DOCS)
        .map(|i| {
            generate(&GeneratorConfig {
                seed: 0xCA7A + i as u64,
                text_len: 1_200,
                hierarchies: 3,
                boundary_jitter: 0.7,
                avg_element_len: 30,
                ..Default::default()
            })
            .build_goddag()
        })
        .collect()
}

fn shared_catalog(docs: &[Goddag]) -> Catalog {
    let catalog = Catalog::new();
    for (i, g) in docs.iter().enumerate() {
        catalog.insert(format!("doc-{i}"), g.clone());
    }
    catalog
}

/// One full workload pass: every query text × every document × ROUNDS.
fn run_shared(catalog: &Catalog) -> usize {
    let mut outputs = 0;
    for _ in 0..ROUNDS {
        for i in 0..N_DOCS {
            let id = format!("doc-{i}");
            for q in XPATH_QUERIES {
                outputs += catalog.xpath(&id, q).unwrap().serialize().len();
            }
            for q in XQUERY_QUERIES {
                outputs += catalog.xquery(&id, q).unwrap().serialize().len();
            }
        }
    }
    outputs
}

/// The pre-catalog serving shape: one engine (own plan cache) per doc.
fn run_per_doc(engines: &[Engine]) -> usize {
    let mut outputs = 0;
    for _ in 0..ROUNDS {
        for e in engines {
            for q in XPATH_QUERIES {
                outputs += e.xpath(q).unwrap().serialize().len();
            }
            for q in XQUERY_QUERIES {
                outputs += e.xquery(q).unwrap().serialize().len();
            }
        }
    }
    outputs
}

fn catalog_vs_per_doc(c: &mut Criterion) {
    let docs = corpus_docs();

    let mut grp = c.benchmark_group("e14_catalog");
    grp.sample_size(10).measurement_time(Duration::from_millis(800));
    grp.bench_function("shared_catalog_cold", |b| {
        // Cold: cache built fresh each iteration — includes the compiles.
        b.iter(|| {
            let catalog = shared_catalog(&docs);
            black_box(run_shared(&catalog))
        })
    });
    grp.bench_function("per_doc_engines_cold", |b| {
        b.iter(|| {
            let engines: Vec<Engine> = docs.iter().map(|g| Engine::new(g.clone())).collect();
            black_box(run_per_doc(&engines))
        })
    });
    let warm = shared_catalog(&docs);
    run_shared(&warm);
    grp.bench_function("shared_catalog_warm", |b| b.iter(|| black_box(run_shared(&warm))));
    grp.finish();
}

/// Snapshot — corpus-serving latency and shared-cache effectiveness,
/// written to `BENCH_catalog.json` at the workspace root.
fn emit_snapshot(_c: &mut Criterion) {
    let docs = corpus_docs();
    let queries_per_pass = N_DOCS * ROUNDS * (XPATH_QUERIES.len() + XQUERY_QUERIES.len());

    let median_ns = |f: &mut dyn FnMut()| -> f64 {
        f(); // warm the allocator/index paths, not the plan caches
        let mut samples = Vec::with_capacity(9);
        for _ in 0..9 {
            let t0 = Instant::now();
            f();
            samples.push(t0.elapsed().as_secs_f64() * 1e9);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        samples[samples.len() / 2]
    };

    // Shared catalog, including construction (cold serving).
    let shared_cold = median_ns(&mut || {
        let catalog = shared_catalog(&docs);
        black_box(run_shared(&catalog));
    });
    // Per-document engines, including construction.
    let per_doc_cold = median_ns(&mut || {
        let engines: Vec<Engine> = docs.iter().map(|g| Engine::new(g.clone())).collect();
        black_box(run_per_doc(&engines));
    });

    // Steady state: caches warm, pure evaluation.
    let warm_catalog = shared_catalog(&docs);
    run_shared(&warm_catalog);
    let shared_warm = median_ns(&mut || {
        black_box(run_shared(&warm_catalog));
    });

    // Compile-count evidence from one fresh pass of each shape.
    let fresh = shared_catalog(&docs);
    run_shared(&fresh);
    let shared_stats = fresh.cache_stats();
    let engines: Vec<Engine> = docs.iter().map(|g| Engine::new(g.clone())).collect();
    run_per_doc(&engines);
    let per_doc_misses: u64 = engines.iter().map(|e| e.cache_stats().misses).sum();
    let per_doc_hits: u64 = engines.iter().map(|e| e.cache_stats().hits).sum();

    // The gate tracks the deterministic cache-effectiveness ratios
    // (counter-derived, so noise-free); the raw pass timings above are
    // deliberately untracked.
    let hit_rate = shared_stats.hits as f64 / (shared_stats.hits + shared_stats.misses) as f64;
    let compile_reduction = per_doc_misses as f64 / shared_stats.misses.max(1) as f64;
    let gate = [
        Metric::new("catalog:hit_rate", rounded(hit_rate, 3), 0.9, 0.5),
        Metric::new("catalog:compile_reduction", compile_reduction, 2.0, 1.5),
    ];
    let fields = format!(
        "  \"bench\": \"catalog_shared_plan_cache\",\n  \
         \"documents\": {N_DOCS},\n  \"query_texts\": {},\n  \"rounds\": {ROUNDS},\n  \
         \"queries_per_pass\": {queries_per_pass},\n  \
         \"shared\": {{\"cold_pass_ns\": {:.0}, \"warm_pass_ns\": {:.0}, \
         \"warm_per_query_ns\": {:.0}, \"compiles\": {}, \"hits\": {}, \
         \"cross_doc_hits\": {}, \"hit_rate\": {:.3}}},\n  \
         \"per_doc_caches\": {{\"cold_pass_ns\": {:.0}, \"compiles\": {}, \"hits\": {}}},\n  \
         \"cold_speedup\": {:.2}",
        XPATH_QUERIES.len() + XQUERY_QUERIES.len(),
        shared_cold,
        shared_warm,
        shared_warm / queries_per_pass as f64,
        shared_stats.misses,
        shared_stats.hits,
        shared_stats.cross_doc_hits,
        hit_rate,
        per_doc_cold,
        per_doc_misses,
        per_doc_hits,
        per_doc_cold / shared_cold,
    );
    let path = snapshot::write("catalog", &fields, &gate);
    println!(
        "shared catalog: {queries_per_pass} queries/pass, {} compiles ({} cross-doc hits), \
         cold {shared_cold:.0} ns, warm {shared_warm:.0} ns",
        shared_stats.misses, shared_stats.cross_doc_hits
    );
    println!(
        "per-doc caches: {per_doc_misses} compiles, cold {per_doc_cold:.0} ns \
         ({:.2}x vs shared)",
        per_doc_cold / shared_cold
    );
    println!("wrote {}", path.display());
}

criterion_group!(benches, catalog_vs_per_doc, emit_snapshot);
criterion_main!(benches);
