//! `mhxr` — the shard router: one wire-protocol front end over N `mhxd`
//! backends, with consistent-hash document placement, `--replicas K`
//! replication, and drain-aware failover.
//!
//! ```sh
//! mhxd --listen 127.0.0.1:7081 &
//! mhxd --listen 127.0.0.1:7082 &
//! mhxr --listen 127.0.0.1:7077 \
//!      --shard 127.0.0.1:7081 --shard 127.0.0.1:7082 --replicas 2
//! ```
//!
//! Clients talk to the router exactly as they would to a single `mhxd`
//! (`mhxq --connect`, `server::client::Client`, plain curl). Shutdown is
//! graceful on SIGINT/SIGTERM or `POST /shutdown`: the router stops
//! accepting, completes every response in progress, and exits — the
//! shards keep running.

use multihier_xquery::server::client::Client;
use multihier_xquery::server::{BackendPool, Router, RouterConfig};
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: mhxr [--listen ADDR] [--workers N] [--replicas K] --shard ADDR [--shard ADDR]...\n\
         \n\
         --listen ADDR      bind address (default 127.0.0.1:7077; port 0 = ephemeral)\n\
         --workers N        event-loop threads, each running its connections'\n\
         \x20                 requests inline — the concurrent request execution\n\
         \x20                 bound; client connections are evented and backend\n\
         \x20                 connections pooled (default 8)\n\
         --shard ADDR       a backend mhxd address (repeatable; at least one required)\n\
         --replicas K       upload each document to K shards and round-robin reads\n\
         \x20                  (default 1; clamped to the shard count)"
    );
    exit(2);
}

/// SIGINT/SIGTERM land in an atomic flag the owner loop polls — same
/// raw-libc `signal(2)` pattern as `mhxd` (std has no signal API and the
/// build is offline, but every unix target links libc anyway).
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: async-signal-safe.
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: *const ()) -> *const ();
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: the handler is an async-signal-safe extern "C" fn; the
        // raw `signal` binding matches the libc prototype on every unix
        // target this builds for.
        unsafe {
            signal(SIGINT, on_signal as *const ());
            signal(SIGTERM, on_signal as *const ());
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}

    pub fn requested() -> bool {
        false
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen = "127.0.0.1:7077".to_string();
    let mut config = RouterConfig::default();
    let mut shards: Vec<String> = Vec::new();
    let mut replicas = 1usize;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                i += 1;
                let Some(addr) = args.get(i) else { usage() };
                listen = addr.clone();
            }
            "--workers" | "--threads" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|v| v.parse().ok()) else { usage() };
                config.workers = n;
            }
            "--shard" => {
                i += 1;
                let Some(addr) = args.get(i) else { usage() };
                shards.push(addr.clone());
            }
            "--replicas" => {
                i += 1;
                let Some(k) = args.get(i).and_then(|v| v.parse().ok()) else { usage() };
                replicas = k;
            }
            "--help" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
        i += 1;
    }

    if shards.is_empty() {
        eprintln!("mhxr: at least one --shard ADDR is required");
        usage();
    }

    // Probe each shard once so an operator typo is visible immediately;
    // a down shard is only a warning — it may come up later, and its
    // documents' replicas cover for it meanwhile.
    for addr in &shards {
        let probe = Client::connect(addr).and_then(|mut c| {
            c.call("GET", "/healthz", None)
                .map(|_| ())
                .map_err(|e| std::io::Error::other(e.to_string()))
        });
        if let Err(e) = probe {
            eprintln!("mhxr: warning: shard {addr} is not answering /healthz yet: {e}");
        }
    }

    let pool = Arc::new(BackendPool::new(shards, replicas));
    sig::install();
    let workers = config.workers;
    let router = match Router::bind(Arc::clone(&pool), &listen, config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot bind {listen}: {e}");
            exit(1);
        }
    };
    eprintln!(
        "mhxr: routing {} shard(s) on http://{} with {workers} workers (evented, replicas={})",
        pool.len(),
        router.addr(),
        pool.replicas(),
    );

    // Owner loop: the event loop cannot join itself, so shutdown — from
    // a signal or from `POST /shutdown` — is performed here.
    while !sig::requested() && !router.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    let health = pool.health_snapshot();
    let healthy = health.iter().filter(|h| h.healthy).count();
    eprintln!("mhxr: draining…");
    router.shutdown();
    eprintln!("mhxr: stopped ({healthy}/{} backends were healthy)", health.len());
}
