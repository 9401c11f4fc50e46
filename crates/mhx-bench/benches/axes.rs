//! E9 + E12 — extended-axis microbenchmarks and the interval-vs-set
//! ablation: Definition 1 evaluated via O(1) span comparisons (our
//! representation choice) against the literal leaf-set semantics.
//!
//! Plus E13: the structural index against the naive `all_nodes()` scan on
//! a ≥10k-node corpus, with a machine-readable snapshot written to
//! `BENCH_axes.json` at the workspace root (the acceptance evidence for
//! the index subsystem: ≥5× on the selective axes).

use criterion::{criterion_group, criterion_main, Criterion};
use mhx_bench::snapshot::{self, rounded, Metric};
use mhx_corpus::{generate, GeneratorConfig};
use mhx_goddag::axes::{axis_nodes, setsem, Axis};
use mhx_goddag::{Goddag, NodeId, StructIndex};
use std::hint::black_box;
use std::time::{Duration, Instant};

const EXTENDED: [Axis; 7] = [
    Axis::XAncestor,
    Axis::XDescendant,
    Axis::XFollowing,
    Axis::XPreceding,
    Axis::PrecedingOverlapping,
    Axis::FollowingOverlapping,
    Axis::Overlapping,
];

fn per_axis(c: &mut Criterion) {
    let doc = generate(&GeneratorConfig {
        text_len: 4_000,
        hierarchies: 3,
        boundary_jitter: 0.8,
        avg_element_len: 30,
        ..Default::default()
    });
    let g = doc.build_goddag();
    // A mid-document element as context node.
    let ctx = g
        .all_nodes()
        .into_iter()
        .filter(|n| matches!(n, mhx_goddag::NodeId::Elem { .. }))
        .nth(10)
        .expect("generated document has elements");

    let mut grp = c.benchmark_group("e12_extended_axes");
    grp.sample_size(20).measurement_time(Duration::from_millis(600));
    for axis in EXTENDED {
        grp.bench_function(axis.name(), |b| b.iter(|| black_box(axis_nodes(&g, axis, ctx))));
    }
    // Standard axes for reference.
    for axis in [Axis::Descendant, Axis::Ancestor, Axis::Following] {
        grp.bench_function(format!("std_{}", axis.name()), |b| {
            b.iter(|| black_box(axis_nodes(&g, axis, ctx)))
        });
    }
    grp.finish();
}

fn interval_vs_set(c: &mut Criterion) {
    let doc = generate(&GeneratorConfig {
        text_len: 1_500,
        hierarchies: 3,
        boundary_jitter: 0.8,
        ..Default::default()
    });
    let g = doc.build_goddag();
    let ctx = g
        .all_nodes()
        .into_iter()
        .filter(|n| matches!(n, mhx_goddag::NodeId::Elem { .. }))
        .nth(5)
        .expect("elements exist");

    let mut grp = c.benchmark_group("e9_interval_vs_set");
    grp.sample_size(10).measurement_time(Duration::from_millis(800));
    grp.bench_function("interval_overlapping", |b| {
        b.iter(|| black_box(axis_nodes(&g, Axis::Overlapping, ctx)))
    });
    grp.bench_function("setsem_overlapping", |b| {
        b.iter(|| black_box(setsem::axis_nodes_setsem(&g, Axis::Overlapping, ctx)))
    });
    grp.bench_function("interval_xdescendant", |b| {
        b.iter(|| black_box(axis_nodes(&g, Axis::XDescendant, ctx)))
    });
    grp.bench_function("setsem_xdescendant", |b| {
        b.iter(|| black_box(setsem::axis_nodes_setsem(&g, Axis::XDescendant, ctx)))
    });
    grp.finish();
}

fn order_iteration(c: &mut Criterion) {
    // E10 companion: Definition-3 total order over all nodes.
    let doc = generate(&GeneratorConfig {
        text_len: 8_000,
        hierarchies: 4,
        boundary_jitter: 0.6,
        ..Default::default()
    });
    let g = doc.build_goddag();
    let mut grp = c.benchmark_group("e10_order");
    grp.sample_size(20).measurement_time(Duration::from_millis(600));
    grp.bench_function("all_nodes_sorted", |b| b.iter(|| black_box(g.all_nodes())));
    let mut nodes = g.all_nodes();
    nodes.reverse();
    grp.bench_function("sort_nodes", |b| {
        b.iter(|| {
            let mut v = nodes.clone();
            g.sort_nodes(&mut v);
            black_box(v)
        })
    });
    grp.finish();
}

/// A ≥10k-node generated corpus (counted, not assumed).
fn large_corpus() -> Goddag {
    let doc = generate(&GeneratorConfig {
        text_len: 24_000,
        hierarchies: 4,
        boundary_jitter: 0.8,
        avg_element_len: 25,
        ..Default::default()
    });
    let g = doc.build_goddag();
    assert!(g.all_nodes().len() >= 10_000, "corpus too small: {} nodes", g.all_nodes().len());
    g
}

/// Mid-document element contexts spread across hierarchies.
fn contexts(g: &Goddag, k: usize) -> Vec<NodeId> {
    let elems: Vec<NodeId> =
        g.all_nodes().into_iter().filter(|n| matches!(n, NodeId::Elem { .. })).collect();
    (0..k).map(|i| elems[(i + 1) * elems.len() / (k + 2)]).collect()
}

/// E13 — indexed vs scan through criterion.
fn indexed_vs_scan(c: &mut Criterion) {
    let g = large_corpus();
    let idx = StructIndex::build(&g);
    let ctxs = contexts(&g, 8);

    let mut grp = c.benchmark_group("e13_indexed_vs_scan");
    grp.sample_size(10).measurement_time(Duration::from_millis(600));
    for axis in EXTENDED {
        grp.bench_function(format!("scan_{}", axis.name()), |b| {
            b.iter(|| {
                for &n in &ctxs {
                    black_box(axis_nodes(&g, axis, n));
                }
            })
        });
        grp.bench_function(format!("indexed_{}", axis.name()), |b| {
            b.iter(|| {
                for &n in &ctxs {
                    black_box(idx.axis_nodes(&g, axis, n));
                }
            })
        });
    }
    grp.bench_function("index_build", |b| b.iter(|| black_box(StructIndex::build(&g))));
    grp.finish();
}

/// E13 snapshot — median per-axis timings and speedups, written to
/// `BENCH_axes.json` at the workspace root.
fn emit_snapshot(_c: &mut Criterion) {
    let g = large_corpus();
    let idx = StructIndex::build(&g);
    let ctxs = contexts(&g, 8);
    let node_count = g.all_nodes().len();

    let median_ns = |f: &dyn Fn()| -> f64 {
        // Warm once, then take the median of repeated batches.
        f();
        let mut samples = Vec::with_capacity(9);
        for _ in 0..9 {
            let t0 = Instant::now();
            f();
            samples.push(t0.elapsed().as_secs_f64() * 1e9);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        samples[samples.len() / 2]
    };

    let mut rows = Vec::new();
    let mut gate = Vec::new();
    for axis in EXTENDED {
        let scan = median_ns(&|| {
            for &n in &ctxs {
                black_box(axis_nodes(&g, axis, n));
            }
        });
        let indexed = median_ns(&|| {
            for &n in &ctxs {
                black_box(idx.axis_nodes(&g, axis, n));
            }
        });
        rows.push(format!(
            "    {{\"axis\": \"{}\", \"scan_ns\": {:.0}, \"indexed_ns\": {:.0}, \
             \"speedup\": {:.1}}}",
            axis.name(),
            scan,
            indexed,
            scan / indexed
        ));
        // Healthy = the index subsystem's original ≥5x acceptance bar; the
        // hard floor keeps every indexed axis at least twice the scan.
        let speedup = rounded(scan / indexed, 1);
        gate.push(Metric::new(format!("axes:{}:speedup", axis.name()), speedup, 5.0, 2.0));
        println!(
            "{:<24} scan {:>12.0} ns   indexed {:>12.0} ns   speedup {:>8.1}x",
            axis.name(),
            scan,
            indexed,
            scan / indexed
        );
    }
    let build_ns = median_ns(&|| {
        black_box(StructIndex::build(&g));
    });
    let fields = format!(
        "  \"bench\": \"axes_indexed_vs_scan\",\n  \"nodes\": {},\n  \
         \"contexts_per_measure\": {},\n  \"index_build_ns\": {:.0},\n  \"axes\": [\n{}\n  ]",
        node_count,
        ctxs.len(),
        build_ns,
        rows.join(",\n")
    );
    let path = snapshot::write("axes", &fields, &gate);
    println!("wrote {} ({node_count} nodes, index build {build_ns:.0} ns)", path.display());
}

criterion_group!(
    benches,
    per_axis,
    interval_vs_set,
    order_iteration,
    indexed_vs_scan,
    emit_snapshot
);
criterion_main!(benches);
