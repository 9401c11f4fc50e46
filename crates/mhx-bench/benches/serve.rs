//! E16 — network serving: the full `mhxd` stack under concurrent load.
//!
//! A load generator drives real TCP clients through `Server` (one event
//! loop per worker, each running its connections' requests inline →
//! per-connection session state → `Catalog`), and the snapshot
//! (`BENCH_serve.json`) gates these ratios:
//!
//! * `workers1_vs_8` — 8 keep-alive clients **with think time** (a
//!   remote client is never back-to-back on loopback) served by 1
//!   worker vs 8, as a throughput ratio (1.0 = parity). A single event
//!   loop multiplexes every connection, so think time must never
//!   serialize connections and one worker holds the whole fleet near
//!   parity — the old
//!   worker-per-connection design scored ~0.13 here (client 2 could not
//!   even connect until client 1 finished), which is exactly the
//!   regression this row guards against. Parity is machine-independent:
//!   it holds on a single CPU, where a CPU-scaling ratio cannot.
//! * `keepalive_vs_fresh` — the same request stream over one reused
//!   connection vs a fresh TCP connect (+ session/registry setup) per
//!   request.
//! * `prepared_vs_adhoc` — executing a prepared handle (`{"handle":0}`)
//!   vs re-sending and re-looking-up the full query text per request.
//!   The shared plan cache keeps ad-hoc close; the gate only requires
//!   prepared not to fall behind.
//! * `active_with_idle_fleet` / `idle_fleet_connections` /
//!   `idle_conns_per_extra_thread` — the evented front end's reason to
//!   exist: park 1000 idle keep-alive connections, then re-run the
//!   active 8-client workload. Active throughput must hold (the fleet
//!   costs table entries, not loops), all 1000 connections must be
//!   accepted and held concurrently, and the fleet must not grow the
//!   process thread count (worker-per-connection would need a thread
//!   per parked client).

use criterion::{criterion_group, criterion_main, Criterion};
use mhx_bench::snapshot::{self, rounded, Metric};
use mhx_corpus::{generate, GeneratorConfig};
use mhx_goddag::Goddag;
use multihier_xquery::prelude::{Catalog, QueryLang};
use multihier_xquery::server::client::Client;
use multihier_xquery::server::{Server, ServerConfig};
use std::hint::black_box;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Scaling workload: clients × requests, with per-request think time.
const SCALE_CLIENTS: usize = 8;
const SCALE_REQUESTS: usize = 25;
const THINK: Duration = Duration::from_millis(2);

/// Sequential workloads (keep-alive vs fresh, prepared vs ad-hoc).
const SEQ_REQUESTS: usize = 200;

/// Idle keep-alive connections parked during the fleet scenario.
const FLEET: usize = 1000;

/// Cheap query: wire + connection overheads dominate, so setup costs show.
const CHEAP_QUERY: &str = "count(/descendant::e0)";
/// Moderate query for the scaling and prepared workloads.
const SERVE_QUERY: &str = "for $x in /descendant::e1[overlapping::e0] let $s := string($x) \
     where string-length($s) > 4 return '#'";

fn corpus_doc() -> Goddag {
    generate(&GeneratorConfig {
        seed: 0x5E21E,
        text_len: 1_200,
        hierarchies: 3,
        boundary_jitter: 0.7,
        avg_element_len: 30,
        ..Default::default()
    })
    .build_goddag()
}

/// A server over a fresh catalog holding one corpus document (a shutdown
/// catalog cannot be reused, so every measurement gets its own).
fn boot(doc: &Goddag, workers: usize) -> Server {
    let catalog = Arc::new(Catalog::new());
    catalog.insert("doc", doc.clone());
    let config = ServerConfig {
        workers,
        poll_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    Server::bind(catalog, "127.0.0.1:0", config).expect("bind ephemeral port")
}

/// Raise `RLIMIT_NOFILE` so the fleet (2 fds per loopback connection:
/// client end + accepted end) fits — raw libc `setrlimit(2)`, same
/// discipline as the daemons' `signal(2)` binding (std exposes no rlimit
/// API and the build is offline, but linux always links libc).
#[cfg(target_os = "linux")]
fn raise_nofile_limit(want: u64) {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    const RLIMIT_NOFILE: i32 = 7;
    // SAFETY: plain value struct in/out matching the 64-bit linux libc
    // prototypes; no pointers outlive the call.
    unsafe {
        let mut lim = Rlimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) == 0 && lim.cur < want {
            lim.cur = want.min(lim.max);
            let _ = setrlimit(RLIMIT_NOFILE, &lim);
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn raise_nofile_limit(_want: u64) {}

/// Threads in this process (`/proc/self/status`); 0 where unreadable, in
/// which case the thread-growth ratio degrades to its best value rather
/// than failing a platform that cannot measure it.
fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| l.strip_prefix("Threads:").and_then(|v| v.trim().parse().ok()))
        })
        .unwrap_or(0)
}

fn median_secs(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Wall time for `clients` concurrent keep-alive connections, each doing
/// `requests` queries with `THINK` of client-side work between them.
fn timed_concurrent_pass(addr: &str, clients: usize, requests: usize) -> f64 {
    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.to_string();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                barrier.wait();
                for _ in 0..requests {
                    let out = client.xquery("doc", SERVE_QUERY).expect("query");
                    black_box(out.serialized.len());
                    thread::sleep(THINK);
                }
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("client thread");
    }
    t0.elapsed().as_secs_f64()
}

fn scaling_pass(doc: &Goddag, workers: usize) -> f64 {
    let server = boot(doc, workers);
    let addr = server.addr().to_string();
    // One warm pass compiles the plan and faults in the index.
    timed_concurrent_pass(&addr, 2, 2);
    let mut samples: Vec<f64> =
        (0..3).map(|_| timed_concurrent_pass(&addr, SCALE_CLIENTS, SCALE_REQUESTS)).collect();
    let secs = median_secs(&mut samples);
    server.shutdown();
    secs
}

fn serve_benches(c: &mut Criterion) {
    let doc = corpus_doc();
    let server = boot(&doc, 4);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    client.xquery("doc", SERVE_QUERY).expect("warm");

    let mut grp = c.benchmark_group("e16_serve");
    grp.sample_size(10).measurement_time(Duration::from_millis(800));
    grp.bench_function("request_keepalive", |b| {
        b.iter(|| black_box(client.xquery("doc", SERVE_QUERY).expect("query").serialized.len()))
    });
    grp.bench_function("request_fresh_connection", |b| {
        b.iter(|| {
            let mut c = Client::connect(&addr).expect("connect");
            black_box(c.xpath("doc", CHEAP_QUERY).expect("query").serialized.len())
        })
    });
    grp.finish();
    drop(client);
    server.shutdown();
}

/// The snapshot: throughput ratios over the full network stack, written
/// to `BENCH_serve.json` at the workspace root.
fn emit_snapshot(_c: &mut Criterion) {
    let doc = corpus_doc();
    let nodes = doc.all_nodes().len();

    // --- one-worker parity under think-time load -------------------
    let t1 = scaling_pass(&doc, 1);
    let t8 = scaling_pass(&doc, 8);
    let scale_requests = (SCALE_CLIENTS * SCALE_REQUESTS) as f64;
    let workers1_vs_8 = t8 / t1;

    // --- keep-alive vs fresh connections ---------------------------
    let server = boot(&doc, 4);
    let addr = server.addr().to_string();
    let mut keepalive_client = Client::connect(&addr).expect("connect");
    keepalive_client.xpath("doc", CHEAP_QUERY).expect("warm");
    let mut keepalive_samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..SEQ_REQUESTS {
                black_box(
                    keepalive_client.xpath("doc", CHEAP_QUERY).expect("query").serialized.len(),
                );
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let keepalive_secs = median_secs(&mut keepalive_samples);
    let mut fresh_samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..SEQ_REQUESTS {
                let mut c = Client::connect(&addr).expect("connect");
                black_box(c.xpath("doc", CHEAP_QUERY).expect("query").serialized.len());
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let fresh_secs = median_secs(&mut fresh_samples);
    let keepalive_vs_fresh = fresh_secs / keepalive_secs;

    // --- prepared vs ad-hoc ----------------------------------------
    let handle = keepalive_client.prepare(QueryLang::XQuery, SERVE_QUERY).expect("prepare");
    keepalive_client.execute(handle, Some("doc")).expect("warm");
    let mut prepared_samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..SEQ_REQUESTS {
                black_box(
                    keepalive_client.execute(handle, None).expect("execute").serialized.len(),
                );
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let prepared_secs = median_secs(&mut prepared_samples);
    let mut adhoc_samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..SEQ_REQUESTS {
                black_box(
                    keepalive_client.xquery("doc", SERVE_QUERY).expect("query").serialized.len(),
                );
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let adhoc_secs = median_secs(&mut adhoc_samples);
    let prepared_vs_adhoc = adhoc_secs / prepared_secs;
    drop(keepalive_client);
    server.shutdown();

    // --- idle-connection fleet -------------------------------------
    // Park FLEET idle keep-alive connections on a fresh 8-worker server,
    // then re-run the active workload. The three ratios gate the evented
    // front end's contract: active throughput holds, every parked
    // connection is held concurrently, and idle connections cost no
    // threads.
    raise_nofile_limit((FLEET as u64) * 2 + 512);
    let server = boot(&doc, 8);
    let addr = server.addr().to_string();
    timed_concurrent_pass(&addr, 2, 2); // warm
    let mut no_fleet_samples: Vec<f64> =
        (0..3).map(|_| timed_concurrent_pass(&addr, SCALE_CLIENTS, SCALE_REQUESTS)).collect();
    let no_fleet_secs = median_secs(&mut no_fleet_samples);

    let threads_before = process_threads();
    let fleet: Vec<TcpStream> =
        (0..FLEET).map(|_| TcpStream::connect(&addr).expect("park fleet connection")).collect();
    let park_deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().active_connections < FLEET {
        assert!(Instant::now() < park_deadline, "fleet never fully accepted");
        thread::sleep(Duration::from_millis(10));
    }
    let fleet_held = server.stats().active_connections;
    let threads_with_fleet = process_threads();

    let mut with_fleet_samples: Vec<f64> =
        (0..3).map(|_| timed_concurrent_pass(&addr, SCALE_CLIENTS, SCALE_REQUESTS)).collect();
    let with_fleet_secs = median_secs(&mut with_fleet_samples);
    let active_with_idle_fleet = no_fleet_secs / with_fleet_secs;
    // Threads the fleet added (the warm pass and active clients come and
    // go, so growth is clamped at zero); worker-per-connection would add
    // ~one per parked client, the evented table adds none.
    let extra_threads = threads_with_fleet.saturating_sub(threads_before);
    let idle_conns_per_extra_thread = FLEET as f64 / extra_threads.max(1) as f64;
    drop(fleet);
    server.shutdown();

    // One-worker parity is the load-bearing row: worker-per-connection
    // scores ~0.13, far under its hard floor. The keep-alive and prepared
    // rows price per-request overheads that are real but small next to
    // evaluation, so they gate near parity. The fleet must be held whole
    // (a hard count, not a ratio), must not dent active throughput past
    // the health floor, and must cost at most a handful of threads (hard
    // floor: 100 idle connections per extra thread; worker-per-connection
    // scores ~1).
    let gate = [
        Metric::new("serve:workers1_vs_8:ratio", rounded(workers1_vs_8, 2), 0.9, 0.7),
        Metric::new("serve:keepalive_vs_fresh:ratio", rounded(keepalive_vs_fresh, 2), 1.1, 0.9),
        Metric::new("serve:prepared_vs_adhoc:ratio", rounded(prepared_vs_adhoc, 2), 1.0, 0.7),
        Metric::new(
            "serve:active_with_idle_fleet:ratio",
            rounded(active_with_idle_fleet, 2),
            0.8,
            0.5,
        ),
        Metric::new("serve:idle_fleet_connections:ratio", fleet_held as f64, 1000.0, 1000.0),
        Metric::new(
            "serve:idle_conns_per_extra_thread:ratio",
            rounded(idle_conns_per_extra_thread, 0),
            500.0,
            100.0,
        ),
    ];
    let rps = |secs: f64, requests: f64| requests / secs;
    let fields = format!(
        "  \"bench\": \"serve\",\n  \"corpus_nodes\": {nodes},\n  \
         \"scale_clients\": {SCALE_CLIENTS},\n  \"scale_requests_per_client\": {SCALE_REQUESTS},\n  \
         \"think_time_ms\": {},\n  \"seq_requests\": {SEQ_REQUESTS},\n  \
         \"fleet_connections\": {FLEET},\n  \"fleet_extra_threads\": {extra_threads},\n  \
         \"throughput_rps\": {{\n    \"workers1\": {:.0},\n    \"workers8\": {:.0},\n    \
         \"keepalive\": {:.0},\n    \"fresh\": {:.0},\n    \"prepared\": {:.0},\n    \
         \"adhoc\": {:.0},\n    \"active_no_fleet\": {:.0},\n    \"active_with_fleet\": {:.0}\n  }}",
        THINK.as_millis(),
        rps(t1, scale_requests),
        rps(t8, scale_requests),
        rps(keepalive_secs, SEQ_REQUESTS as f64),
        rps(fresh_secs, SEQ_REQUESTS as f64),
        rps(prepared_secs, SEQ_REQUESTS as f64),
        rps(adhoc_secs, SEQ_REQUESTS as f64),
        rps(no_fleet_secs, scale_requests),
        rps(with_fleet_secs, scale_requests),
    );
    let path = snapshot::write("serve", &fields, &gate);
    println!(
        "parity: {SCALE_CLIENTS} clients × {SCALE_REQUESTS} reqs, 1 worker {t1:.3}s vs \
         8 workers {t8:.3}s → {workers1_vs_8:.2}x"
    );
    println!(
        "keep-alive {:.0} rps vs fresh-connection {:.0} rps → {keepalive_vs_fresh:.2}x",
        rps(keepalive_secs, SEQ_REQUESTS as f64),
        rps(fresh_secs, SEQ_REQUESTS as f64),
    );
    println!(
        "prepared {:.0} rps vs ad-hoc {:.0} rps → {prepared_vs_adhoc:.2}x",
        rps(prepared_secs, SEQ_REQUESTS as f64),
        rps(adhoc_secs, SEQ_REQUESTS as f64),
    );
    println!(
        "idle fleet: {fleet_held} parked connections (+{extra_threads} threads), active \
         throughput {:.0} → {:.0} rps ({active_with_idle_fleet:.2}x)",
        rps(no_fleet_secs, scale_requests),
        rps(with_fleet_secs, scale_requests),
    );
    println!("wrote {}", path.display());
}

criterion_group!(benches, serve_benches, emit_snapshot);
criterion_main!(benches);
