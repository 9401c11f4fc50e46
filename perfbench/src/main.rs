//! `perfbench` — the served benchmark.
//!
//! ```sh
//! bash perfbench/run.sh --workload hot_reads --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Drives the release `mhxd` (and, for `routed_reads`, `mhxr`) daemons as
//! child processes with a closed loop of two keep-alive connections on two
//! threads, every daemon at `--workers 2`. Every served answer is checked
//! against an in-process oracle. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` also replays the same operations in-process with
//! per-layer spans and reports the per-layer metrics. The last stdout
//! line is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. `perfbench/METRICS.md` defines every metric.

mod daemon;
mod load;
mod oracle;
mod stats;
mod steal;
mod trace;
mod workload;

use daemon::Daemon;
use load::{Conn, Sent, Sock, Tally, Verdict, Versions};
use mhx_json::Json;
use oracle::Oracle;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Kind, OpKind, Workload, CONNECTIONS};

/// Dispatch workers of every daemon.
const WORKERS: usize = 2;
/// Deployments per run, each set up from scratch and then measured for
/// an equal share of `--seconds`; `setup_s` is the median set-up time.
const EPISODES: usize = 8;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut bin_dir = None;
    let mut work_dir = PathBuf::from(".bench_tmp");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or_else(|| {
                    format!("unknown workload `{name}` (one of {})", workload::NAMES.join(", "))
                })?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let bin_dir = bin_dir.unwrap_or_else(|| {
        std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target"))
            .join("release")
    });
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        bin_dir,
        work_dir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Removes the run's scratch directory (data dirs) on every exit path.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The daemons of one set-up and where documents landed.
struct Deployment {
    /// Front end first (the router when there is one).
    daemons: Vec<Daemon>,
    front: String,
    shards: Vec<String>,
    /// Document → shard index (all 0 without a router).
    placement: Vec<usize>,
}

impl Deployment {
    fn stop(self) -> Result<(), String> {
        // Router first, so it never sees its shards go away.
        let mut first_error = Ok(());
        for d in self.daemons {
            if let Err(e) = d.stop() {
                first_error = first_error.and(Err(e));
            }
        }
        first_error
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        let mut total = 0;
        for d in &self.daemons {
            total += d.peak_rss_bytes()?;
        }
        Ok(total as f64 / (1024.0 * 1024.0))
    }
}

/// Spawn the workload's daemons, upload version 0 of the corpus, open the
/// load connections (preparing handles), and warm until the first correct
/// answer.
fn deploy(
    args: &Args,
    w: &Workload,
    oracle: &Oracle,
    budget: Option<u64>,
    data_dir: &Path,
) -> Result<(Deployment, Vec<Conn>), String> {
    let mhxd = args.bin_dir.join("mhxd");
    let daemon_args = |extra: Vec<String>| {
        let mut a: Vec<String> =
            ["--listen", "127.0.0.1:0", "--workers"].iter().map(|s| s.to_string()).collect();
        a.push(WORKERS.to_string());
        a.extend(extra);
        a
    };
    let mut daemons = Vec::new();
    let mut shards = Vec::new();
    match w.kind {
        Kind::RoutedReads => {
            for _ in 0..2 {
                let d = Daemon::spawn(&mhxd, &daemon_args(Vec::new()))?;
                shards.push(d.addr.clone());
                daemons.push(d);
            }
            let mut extra = vec!["--replicas".to_string(), "1".to_string()];
            for s in &shards {
                extra.push("--shard".into());
                extra.push(s.clone());
            }
            let router = Daemon::spawn(&args.bin_dir.join("mhxr"), &daemon_args(extra))?;
            daemons.insert(0, router);
        }
        _ => {
            let mut extra = Vec::new();
            if let Some(budget) = budget {
                std::fs::create_dir_all(data_dir).map_err(|e| e.to_string())?;
                extra.push("--data-dir".into());
                extra.push(data_dir.display().to_string());
                extra.push("--memory-budget".into());
                extra.push(budget.to_string());
            }
            let d = Daemon::spawn(&mhxd, &daemon_args(extra))?;
            shards.push(d.addr.clone());
            daemons.push(d);
        }
    }
    let front = daemons[0].addr.clone();
    let mut deployment = Deployment { daemons, front, shards, placement: Vec::new() };

    let mut sock = Sock::connect(&deployment.front).map_err(|e| format!("connect: {e}"))?;
    for doc in &w.docs {
        let (status, body) =
            sock.exchange(&doc.versions[0].http).map_err(|e| format!("upload {}: {e}", doc.id))?;
        let json = mhx_json::parse(body).map_err(|e| format!("upload {}: {e}", doc.id))?;
        if status != 200 || json.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("upload {} answered {status}: {body}", doc.id));
        }
        let shard = json
            .get("shards")
            .and_then(Json::as_arr)
            .and_then(|s| s.first())
            .and_then(Json::as_str)
            .and_then(|addr| deployment.shards.iter().position(|s| s == addr))
            .unwrap_or(0);
        deployment.placement.push(shard);
    }
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for c in 0..CONNECTIONS {
        conns.push(Conn::open(w, c, vec![deployment.front.clone()], vec![0; w.docs.len()])?);
    }
    let op = first_query(w);
    for attempt in 0.. {
        let (status, body) = conns[0].send(op.doc as usize, &op.http).map_err(|e| e.to_string())?;
        match load::check_query(oracle, op, (0, 0), 1, status, body) {
            Verdict::Correct => break,
            _ if attempt < 100 => std::thread::sleep(Duration::from_millis(10)),
            _ => return Err(format!("no correct answer after set-up: {status} {body}")),
        }
    }
    Ok((deployment, conns))
}

fn first_query(w: &Workload) -> &workload::Op {
    w.streams[0].iter().find(|op| op.kind != OpKind::Upload).expect("streams hold queries")
}

/// Sum of version-0 snapshot sizes, measured by saving each document
/// through `mhx-store` into `dir`.
fn snapshot_bytes(w: &Workload, dir: &Path) -> Result<u64, String> {
    let store = mhx_store::DocStore::open(dir).map_err(|e| e.to_string())?;
    let mut total = 0;
    for doc in &w.docs {
        let mut b = multihier_xquery::goddag::GoddagBuilder::new();
        for (name, xml) in &doc.versions[0].hierarchies {
            b = b.hierarchy(name.clone(), xml.clone());
        }
        let g = b.build().map_err(|e| e.to_string())?;
        let idx = multihier_xquery::goddag::StructIndex::build(&g);
        total += store.save(&doc.id, &g, &idx).map_err(|e| e.to_string())?;
    }
    Ok(total)
}

/// One reported metric: value and unit, plus a note (sample count) for
/// the human-readable report.
struct Metric {
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric { value, unit, note: note.into() }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn run(args: &Args) -> Result<bool, String> {
    if !args.bin_dir.join("mhxd").is_file() || !args.bin_dir.join("mhxr").is_file() {
        return Err(format!(
            "no mhxd/mhxr in {}; build them with `cargo build --release` first",
            args.bin_dir.display()
        ));
    }
    let w = Workload::generate(args.kind, args.seed);
    let oracle = Oracle::build(&w)?;
    let scratch = ScratchDir(args.work_dir.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("cannot create {}: {e}", scratch.0.display()))?;
    let churn = w.kind == Kind::UploadChurn;
    let snapshot_total = snapshot_bytes(&w, &scratch.0.join("sizes"))?;
    // The working set is about four times the memory budget.
    let budget = churn.then_some(snapshot_total / 4);

    // The timed phase is cut into episodes, each on a fresh deployment:
    // where the scheduler places the busy threads on the machine's CPUs
    // is decided per deployment and holds for its lifetime, so several
    // deployments per run keep one placement from setting the figures.
    let episode = Duration::from_secs_f64(args.seconds / EPISODES as f64);
    let warm = Duration::from_secs_f64((args.seconds / EPISODES as f64 / 4.0).clamp(0.3, 1.0));
    let mut setup_s = Vec::with_capacity(EPISODES);
    let mut peak_rss_mb = Vec::with_capacity(EPISODES);
    let mut windows = Vec::new();
    let mut tally = Tally::default();
    let mut warmup_ops = 0;
    let mut delta: BTreeMap<String, f64> = BTreeMap::new();
    let mut after = BTreeMap::new();
    let mut live_xml = 0;
    let mut self_test = true;
    let mut stopped = Ok(());
    let mut direct = None;
    let mut daemons = 0;
    let mut next = [0usize; CONNECTIONS];
    for k in 0..EPISODES {
        let data_dir = scratch.0.join(format!("data-{k}"));
        let t0 = Instant::now();
        let (deployment, mut conns) = deploy(args, &w, &oracle, budget, &data_dir)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let versions = Versions::new(&w);
        if k == 0 {
            // A deliberately corrupted expectation must be caught.
            let op = first_query(&w);
            let mut corrupted = oracle.clone();
            corrupted.corrupt(op.doc, 0, op.query);
            let (status, body) =
                conns[0].send(op.doc as usize, &op.http).map_err(|e| e.to_string())?;
            self_test = matches!(
                load::check_query(&corrupted, op, (0, 0), 1, status, body),
                Verdict::Wrong(_)
            ) && matches!(
                load::check_query(&oracle, op, (0, 0), 1, status, body),
                Verdict::Correct
            );
        }
        for (conn, &at) in conns.iter_mut().zip(&next) {
            conn.next = at;
        }
        warmup_ops += load::run_all(&w, &oracle, &versions, &mut conns, warm, false).attempted;
        let before = daemon::scrape(&deployment.front)?;
        let sampler = steal::StealSampler::start();
        let part = load::run_all(&w, &oracle, &versions, &mut conns, episode, true);
        let steal_log = sampler.finish();
        after = daemon::scrape(&deployment.front)?;
        for (key, d) in daemon::delta(&before, &after) {
            *delta.entry(key).or_insert(0.0) += d;
        }
        peak_rss_mb.push(deployment.peak_rss_mb()?);
        daemons = deployment.daemons.len();
        live_xml =
            (0..w.docs.len()).map(|d| w.docs[d].versions[versions.committed(d)].xml_bytes()).sum();
        let timeline: Vec<(f64, f64, bool)> =
            part.samples.iter().map(|s| (s.at_s, s.ns, s.sent != Sent::Upload)).collect();
        windows
            .extend(stats::windows(&timeline, episode.as_secs_f64(), |a, b| steal_log.share(a, b)));
        tally.absorb(part);
        for (at, conn) in next.iter_mut().zip(&conns) {
            *at = conn.next;
        }

        // routed_reads, traced: the same ops sent straight to the owning
        // shard, to price the router's hop.
        if args.trace && w.kind == Kind::RoutedReads && k + 1 == EPISODES {
            let mut direct_conns = Vec::with_capacity(CONNECTIONS);
            for c in 0..CONNECTIONS {
                direct_conns.push(Conn::open(
                    &w,
                    c,
                    deployment.shards.clone(),
                    deployment.placement.clone(),
                )?);
            }
            direct = Some(load::run_all(&w, &oracle, &versions, &mut direct_conns, episode, true));
        }
        drop(conns);
        if let Err(e) = deployment.stop() {
            stopped = Err(e);
        }
    }

    let is_query = |s: Sent| s != Sent::Upload;
    let n_queries = tally.count(is_query);
    let kept = stats::clean(&windows);
    let too_few = || "too few query samples in the kept windows; run longer".to_string();
    let throughput = stats::median(&kept.iter().map(|w| w.ops_s).collect::<Vec<_>>());
    let p50s: Vec<f64> = kept.iter().filter_map(|w| w.p50_ns).collect();
    if p50s.is_empty() {
        return Err(too_few());
    }
    let query_p50 = stats::median(&p50s);
    // A window may hold too few queries for a p99 of its own, so the p99
    // pools the kept windows.
    let kept_ns = stats::sorted(kept.iter().flat_map(|w| w.latencies.iter().copied()).collect());
    let query_p99 = stats::percentile(&kept_ns, 99.0).ok_or_else(too_few)?;
    let uploads_ns = stats::sorted(tally.latencies(|s| s == Sent::Upload));

    let mut e2e: BTreeMap<&str, Metric> = BTreeMap::new();
    e2e.insert(
        "setup_s",
        metric(stats::median(&setup_s), "s", format!("median of {EPISODES} set-ups")),
    );
    let window_note = format!(
        "median of {} of {} windows over {EPISODES} deployments",
        kept.len(),
        windows.len()
    );
    e2e.insert(
        "throughput_ops_s",
        metric(throughput, "ops/s", format!("{window_note}; {} ops in all", tally.samples.len())),
    );
    e2e.insert(
        "query_p50_ms",
        metric(ms(query_p50), "ms", format!("{window_note} of each one's p50; n={n_queries}")),
    );
    e2e.insert(
        "query_p99_ms",
        metric(
            ms(query_p99),
            "ms",
            format!(
                "queries of the {} kept windows pooled, n={}, {} beyond",
                kept.len(),
                kept_ns.len(),
                kept_ns.len() - (kept_ns.len() * 99).div_ceil(100)
            ),
        ),
    );
    e2e.insert(
        "server_peak_rss_mb",
        metric(
            stats::median(&peak_rss_mb),
            "MB",
            format!("VmHWM summed over {daemons} daemon(s), median of {EPISODES} deployments"),
        ),
    );

    // Reported by name in every run; workload-specific or possibly zero,
    // so not in the end-to-end set of BENCHMARK.json (see METRICS.md).
    let mut extra: BTreeMap<&str, Metric> = BTreeMap::new();
    let error_rate = tally.failed() as f64 / tally.attempted.max(1) as f64;
    extra.insert(
        "error_rate",
        metric(
            error_rate,
            "ratio",
            format!(
                "{} failed of {} attempted ({} transport, {} non-2xx, {} wrong)",
                tally.failed(),
                tally.attempted,
                tally.transport_errors,
                tally.non_2xx,
                tally.wrong_answers
            ),
        ),
    );
    let n_up = uploads_ns.len();
    for (name, p) in [("upload_p50_ms", 50.0), ("upload_p99_ms", 99.0)] {
        let m = match stats::percentile(&uploads_ns, p) {
            Some(v) => metric(ms(v), "ms", format!("all uploads pooled, n={n_up}")),
            None => metric(
                0.0,
                "ms",
                format!("n={n_up}: fewer than {} beyond, not measured", stats::MIN_BEYOND),
            ),
        };
        extra.insert(name, m);
    }
    let on_disk = after.get("store.bytes_on_disk").copied().unwrap_or(0.0);
    extra.insert(
        "disk_bytes_per_input_byte",
        metric(
            if churn { on_disk / live_xml as f64 } else { 0.0 },
            "ratio",
            format!("{on_disk} B on disk / {live_xml} B live XML"),
        ),
    );

    let mut correct = tally.failed() == 0 && self_test && stopped.is_ok();
    let mut layer: BTreeMap<&str, Metric> = BTreeMap::new();
    if args.trace {
        correct &= traced(
            args,
            &w,
            &oracle,
            &scratch.0,
            budget,
            TracedInputs {
                tally: &tally,
                delta: &delta,
                after: &after,
                direct: direct.as_ref(),
                query_p50_ns: query_p50,
            },
            &mut layer,
        )?;
    }

    // Human-readable report, then the result line.
    println!(
        "perfbench workload={} seed={} seconds={} trace={} load=closed-loop connections={CONNECTIONS} \
         threads={CONNECTIONS} think_time=0 workers={WORKERS} available_parallelism={}",
        w.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let xml_bytes: usize = w.docs.iter().map(|d| d.versions[0].xml_bytes()).sum();
    println!(
        "record seed={} docs={} versions_per_doc={} nodes_per_doc={:.0} xml_bytes={xml_bytes} \
         snapshot_bytes={snapshot_total} memory_budget={} distinct_query_texts={} \
         oracle_answers={} ops_per_connection_stream={} warmup_ops={}",
        args.seed,
        w.docs.len(),
        w.docs[0].versions.len(),
        oracle.nodes_per_doc,
        budget.map_or("none".to_string(), |b| b.to_string()),
        w.queries.len(),
        oracle.len(),
        w.streams[0].len(),
        warmup_ops,
    );
    println!(
        "samples queries={n_queries} (adhoc={}, prepared={}) uploads={n_up} p50_beyond={} \
         p99_beyond={} episodes={EPISODES}",
        tally.count(|s| s == Sent::Adhoc),
        tally.count(|s| s == Sent::Prepared),
        n_queries - n_queries.div_ceil(2),
        n_queries - (n_queries * 99).div_ceil(100),
    );
    let series = |f: &dyn Fn(&stats::Window) -> Option<f64>| {
        windows
            .iter()
            .map(|w| f(w).map_or("-".to_string(), |v| format!("{v:.1}")))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("windows steal_pct=[{}]", series(&|w| Some(w.steal * 100.0)));
    println!("windows ops_s=[{}]", series(&|w| Some(w.ops_s)));
    println!("windows query_p50_ns=[{}]", series(&|w| w.p50_ns));
    println!("windows query_p99_ns=[{}]", series(&|w| w.p99_ns));
    println!("self_test corrupted_expectation_caught={self_test}");
    if let Err(e) = &stopped {
        println!("failure {e}");
    }
    for f in &tally.first_failures {
        println!("failure {f}");
    }
    for (name, m) in e2e.iter().chain(&extra) {
        println!("end_to_end {name} = {} {} ({})", m.value, m.unit, m.note);
    }
    for (name, m) in &layer {
        println!("per_layer {name} = {} {} ({})", m.value, m.unit, m.note);
    }
    // The per-layer set of BENCHMARK.json also holds the `extra` figures.
    let reported: Vec<(&&str, &Metric)> =
        if args.trace { layer.iter().chain(&extra).collect() } else { e2e.iter().collect() };
    let metrics = reported
        .into_iter()
        .map(|(name, m)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(tally.attempted as f64)),
        ("failed".into(), Json::Num(tally.failed() as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{result}");
    Ok(correct)
}

/// What the traced run needs from the served phase.
struct TracedInputs<'a> {
    tally: &'a Tally,
    delta: &'a BTreeMap<String, f64>,
    after: &'a BTreeMap<String, f64>,
    direct: Option<&'a Tally>,
    /// Served query p50 (ns), the end-to-end figure.
    query_p50_ns: f64,
}

/// Replay the ops in-process with spans, derive the per-layer metrics
/// into `out`, write the spans, and report whether every replayed answer
/// was right and every span nested inside its op.
fn traced(
    args: &Args,
    w: &Workload,
    oracle: &Oracle,
    scratch: &Path,
    budget: Option<u64>,
    served: TracedInputs<'_>,
    out: &mut BTreeMap<&'static str, Metric>,
) -> Result<bool, String> {
    let store_dir = scratch.join("replay");
    std::fs::create_dir_all(&store_dir).map_err(|e| e.to_string())?;
    let mut tr = trace::Tracer::new(true);
    let mut r = trace::Replay::new(w, oracle, budget.map(|b| (store_dir.as_path(), b)), &mut tr)?;
    let ops = trace::interleaved(w);
    let t0 = Instant::now();
    let replayed = trace::replay_for(
        &mut r,
        &mut tr,
        &ops,
        Duration::from_secs_f64((args.seconds / 2.0).max(0.5)),
    )?;
    let per_op = t0.elapsed().as_secs_f64() / replayed.max(1) as f64;

    // Tracing overhead: the same blocks of ops with spans on and off,
    // alternating which goes first.
    let block = ((0.04 / per_op) as usize).clamp(20, ops.len());
    let mut ratios = Vec::new();
    let mut at = replayed;
    for round in 0..9 {
        let slice: Vec<&workload::Op> = (0..block).map(|i| ops[(at + i) % ops.len()]).collect();
        at += block;
        let mut time = |on: bool| -> Result<f64, String> {
            let mut t = trace::Tracer::new(on);
            let start = Instant::now();
            for op in &slice {
                r.run(&mut t, op)?;
            }
            Ok(start.elapsed().as_secs_f64())
        };
        let (on, off) = if round % 2 == 0 {
            let on = time(true)?;
            (on, time(false)?)
        } else {
            let off = time(false)?;
            (time(true)?, off)
        };
        ratios.push(on / off);
    }

    let layers = trace::layers(&tr.spans);
    let spans_dir = args.work_dir.join("spans");
    std::fs::create_dir_all(&spans_dir).map_err(|e| e.to_string())?;
    let spans_path = spans_dir.join(format!("{}-{}.jsonl", w.kind.name(), args.seed));
    tr.write(&spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let med = |name: &str| layers.by_name.get(name).map_or(0.0, |v| stats::median(v));
    let count = |name: &str| layers.by_name.get(name).map_or(0, Vec::len);
    let n = |name: &str| format!("median self time, n={}", count(name));
    let d = |key: &str| served.delta.get(key).copied().unwrap_or(0.0);
    let tally = served.tally;
    let served_queries = tally.count(|s| s != Sent::Upload) as f64;
    let routed = w.kind == Kind::RoutedReads;
    let front = if routed { "router" } else { "server" };

    let op_p50_ns = med("op.query");
    let overhead_ns = served.query_p50_ns - op_p50_ns;
    out.insert(
        "trace.op_p50_us",
        metric(us(op_p50_ns), "us", format!("in-process query op, n={}", count("op.query"))),
    );
    out.insert(
        "frontend.overhead_us_p50",
        metric(us(overhead_ns), "us", "served query p50 - in-process query op p50"),
    );
    out.insert(
        "frontend.share_p50",
        metric(overhead_ns / served.query_p50_ns, "ratio", "overhead / served query p50"),
    );
    out.insert(
        "server.connections_per_op",
        metric(
            d(&format!("{front}.connections_accepted")) / tally.attempted.max(1) as f64,
            "ratio",
            format!("{front} connections accepted / {} ops", tally.attempted),
        ),
    );
    out.insert(
        "server.pipelined_requests",
        metric(d(&format!("{front}.pipelined_requests")), "count", "delta over the timed phases"),
    );
    let sorted_us = |v: &[f64]| {
        let s = stats::sorted(v.to_vec());
        stats::percentile(&s, 50.0).map_or(0.0, us)
    };
    out.insert(
        "handler.prepared_p50_us",
        metric(
            sorted_us(&tally.latencies(|s| s == Sent::Prepared)),
            "us",
            format!("n={}", tally.count(|s| s == Sent::Prepared)),
        ),
    );
    out.insert(
        "handler.adhoc_p50_us",
        metric(
            sorted_us(&tally.latencies(|s| s == Sent::Adhoc)),
            "us",
            format!("n={}", tally.count(|s| s == Sent::Adhoc)),
        ),
    );
    out.insert("json.encode_us", metric(us(med("json.encode")), "us", n("json.encode")));
    out.insert("json.decode_us", metric(us(med("json.decode")), "us", n("json.decode")));
    let (hits, misses) = (d("cache.hits"), d("cache.misses"));
    out.insert(
        "cache.hit_rate",
        metric(
            hits / (hits + misses).max(1.0),
            "ratio",
            format!("{hits} hits / {} lookups", hits + misses),
        ),
    );
    out.insert("cache.misses", metric(misses, "count", "delta over the timed phases"));
    out.insert(
        "cache.evictions",
        metric(d("cache.evictions"), "count", "delta over the timed phases"),
    );
    out.insert("plan.compile_us", metric(us(med("plan.compile")), "us", n("plan.compile")));
    out.insert("plan.lookup_us", metric(us(med("plan.lookup")), "us", n("plan.lookup")));
    out.insert("eval.xpath_us_p50", metric(us(med("eval.xpath")), "us", n("eval.xpath")));
    out.insert("eval.xquery_us_p50", metric(us(med("eval.xquery")), "us", n("eval.xquery")));
    out.insert(
        "eval.result_bytes",
        metric(
            r.result_bytes as f64 / r.queries.max(1) as f64,
            "bytes",
            format!("mean serialized answer over {} replayed queries", r.queries),
        ),
    );
    for (name, key) in [
        ("eval.batched_steps", "eval.batched_steps"),
        ("eval.rewritten_steps", "eval.rewritten_steps"),
        ("eval.early_exit_steps", "eval.early_exit_steps"),
        ("eval.hoisted_preds", "eval.hoisted_preds"),
        ("eval.chain_joins", "eval.chain_joins"),
    ] {
        out.insert(
            name,
            metric(
                d(key) / served_queries.max(1.0),
                "count",
                format!("{} / {served_queries} served queries", d(key)),
            ),
        );
    }
    let parse_ns: f64 = layers.by_name.get("xml.parse").map_or(0.0, |v| v.iter().sum());
    out.insert("xml.parse_us", metric(us(med("xml.parse")), "us", n("xml.parse")));
    out.insert(
        "xml.parse_mb_s",
        metric(
            r.xml_bytes_parsed as f64 / 1e6 / (parse_ns / 1e9).max(1e-12),
            "MB/s",
            format!("{} B parsed", r.xml_bytes_parsed),
        ),
    );
    out.insert("goddag.build_us", metric(us(med("goddag.build")), "us", n("goddag.build")));
    out.insert("index.build_us", metric(us(med("index.build")), "us", n("index.build")));
    out.insert(
        "goddag.nodes_per_doc",
        metric(oracle.nodes_per_doc, "count", "mean over every document version"),
    );
    out.insert(
        "store.save_us",
        match budget {
            Some(_) => metric(
                us(stats::median(&layers.save_ns)),
                "us",
                format!("Catalog::put minus its index build, n={}", layers.save_ns.len()),
            ),
            None => metric(0.0, "us", "no data directory: Catalog::put does not persist"),
        },
    );
    out.insert("store.load_us", metric(us(med("store.load")), "us", n("store.load")));
    let loads = d("store.loads");
    out.insert(
        "store.loads_per_query",
        metric(
            loads / served_queries.max(1.0),
            "ratio",
            format!("{loads} loads / {served_queries} served queries"),
        ),
    );
    out.insert(
        "store.evictions",
        metric(d("store.evictions"), "count", "delta over the timed phases"),
    );
    out.insert(
        "store.resident_bytes",
        metric(
            served.after.get("store.resident_bytes").copied().unwrap_or(0.0),
            "bytes",
            "after the timed phase",
        ),
    );
    // Same estimator on both sides: the median of per-window p50s.
    let hop = served.direct.map_or(0.0, |direct| {
        let timeline: Vec<(f64, f64, bool)> =
            direct.samples.iter().map(|s| (s.at_s, s.ns, true)).collect();
        let length = timeline.iter().map(|t| t.0).fold(0.0, f64::max);
        let p50s: Vec<f64> =
            stats::windows(&timeline, length, |_, _| 0.0).iter().filter_map(|w| w.p50_ns).collect();
        served.query_p50_ns - stats::median(&p50s)
    });
    out.insert(
        "router.hop_us_p50",
        metric(us(hop), "us", "routed query p50 - direct-to-shard query p50"),
    );
    out.insert("router.failovers", metric(d("router.failovers"), "count", "must be 0"));
    out.insert("router.re_prepares", metric(d("router.re_prepares"), "count", "delta"));
    out.insert(
        "router.idle_backend_connections",
        metric(
            served.after.get("router.idle_backend_connections").copied().unwrap_or(0.0),
            "count",
            "after the timed phase",
        ),
    );
    out.insert(
        "trace.overhead_ratio",
        metric(
            stats::median(&ratios),
            "ratio",
            format!("spans on / off, median of {} rounds of {block} ops", ratios.len()),
        ),
    );
    println!(
        "trace spans={} ops_replayed={replayed} violations={} wrong={} file={}",
        tr.spans.len(),
        layers.violations,
        r.wrong.len(),
        spans_path.display()
    );
    for wrong in r.wrong.iter().take(5) {
        println!("failure {wrong}");
    }
    let direct_ok = served.direct.is_none_or(|t| t.failed() == 0);
    let failovers_ok = d("router.failovers") == 0.0;
    Ok(layers.violations == 0 && r.wrong.is_empty() && direct_ok && failovers_ok)
}
