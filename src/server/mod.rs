//! # `mhxd` — the catalog on the wire
//!
//! A std-only **evented** HTTP/1.1 front end for [`Catalog`]: a fixed set
//! of readiness loops (raw `epoll(7)` on Linux, see `event.rs`), one per
//! worker, each owning its share of the client sockets in nonblocking
//! mode, parsing requests incrementally and running each complete request
//! inline on the thread that read it. Thread count is `workers`
//! regardless of connection count, so thousands of idle keep-alive
//! clients cost a connection-table entry each, not a thread each.
//!
//! The layers are the same for `mhxd` and for the [`router`] (`mhxr`);
//! only the bottom one differs:
//!
//! ```text
//!                      TcpListener (watched by every loop)
//!            ┌───────────────┼───────────────┐
//!         loop 0          loop 1    …     loop N-1    (ServerConfig::workers)
//!   event.rs  accept → hand the socket to the loop with the fewest
//!             connections; connection table: token → buffers + ConnState;
//!             Hub: config, drain/shutdown flags, counters, /stats rows
//!            └───────────────┼───────────────┘
//!   handler.rs  the route table + validation + ConnState (doc pin,
//!               prepared, options): one protocol for both front ends
//!                            │  Service (what a validated request runs on)
//!            ┌───────────────┴───────────────┐
//!   mod.rs  Catalog (mhxd)         router.rs  RouterCore (mhxr)
//!     one Session per request        replica sets over pooled backends
//! ```
//!
//! Requests pipeline: a loop parses ahead, execution stays serial per
//! connection, and responses flush strictly in arrival order.
//!
//! No tokio, no hyper: the build is offline (see the `vendor/` shim
//! convention), and `std::net` + raw-libc epoll + one loop thread per
//! worker serve the engine's `&self`-query design directly — the catalog
//! was made `Send + Sync` for exactly this.
//!
//! **Graceful shutdown.** [`Server::shutdown`] flips the hub's drain flag,
//! [`Catalog::begin_shutdown`]s the engine (in-flight evaluations finish,
//! new ones get 503), and wakes every loop, each of which stops admitting
//! connections, closes idle ones within one poll interval, and completes
//! every response in flight before exiting — no request is dropped
//! mid-response.
//!
//! The [`client`] module is the matching blocking client (used by the
//! integration tests, `mhxq --connect`, and the `serve` bench); [`wire`]
//! documents the JSON wire format and the `EngineError` → status mapping.
//! Scaling past one node is the [`router`] module (the `mhxr` binary): a
//! [`pool::BackendPool`] consistent-hashes document ids across several
//! `mhxd` backends and the [`Router`] speaks this same wire protocol in
//! front of them, with replication and drain-aware failover.

pub mod client;
mod event;
mod handler;
mod http;
pub mod pool;
pub mod router;
pub mod wire;

pub use http::Request;
pub use pool::{BackendHealth, BackendPool};
pub use router::Router;
pub use wire::{error_kind, parse_lang, status_for, WireOutcome};

use crate::engine::{Catalog, EngineError, EvalStats, Prepared, QueryLang, QueryOutcome, Session};
use event::{ConnStats, EventLoop, Hub};
use handler::Service;
use mhx_goddag::GoddagBuilder;
use mhx_json::Json;
use mhx_xquery::EvalOptions;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for [`Server::bind`] and [`Router::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Event-loop threads, each running its connections' requests inline
    /// — so also the concurrent request execution bound. Connections are
    /// evented, so idle keep-alive clients cost no threads regardless of
    /// this setting.
    pub workers: usize,
    /// The event loops' `epoll_wait` tick: the upper bound on how stale
    /// the drain flag and timeout sweep can get with no socket activity.
    pub poll_interval: Duration,
    /// How long a started request may take to arrive completely.
    pub request_timeout: Duration,
    /// Maximum request body size in bytes.
    pub max_body: usize,
    /// Close keep-alive connections idle (no bytes, nothing queued or in
    /// flight) for longer than this. `None` (the default) keeps idle
    /// connections open until the peer hangs up or the server drains.
    pub max_idle: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 8,
            poll_interval: Duration::from_millis(25),
            request_timeout: Duration::from_secs(10),
            max_body: 16 * 1024 * 1024,
            max_idle: None,
        }
    }
}

/// Aggregate server counters (see also the `/stats` endpoint).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub connections_accepted: u64,
    pub requests: u64,
    /// Requests that arrived while an earlier request on the same
    /// connection was still queued or executing (HTTP/1.1 pipelining).
    pub pipelined_requests: u64,
    pub active_connections: usize,
}

/// The running daemon: a bound listener and its event loops. Dropping
/// without [`Server::shutdown`] detaches the threads (they keep serving
/// until the process exits) — daemons should always shut down explicitly.
///
/// ```
/// use multihier_xquery::prelude::*;
/// use multihier_xquery::server::{client::Client, Server, ServerConfig};
/// use std::sync::Arc;
///
/// let catalog = Arc::new(Catalog::new());
/// catalog.insert(
///     "ms",
///     GoddagBuilder::new().hierarchy("w", "<r><w>a</w><w>b</w></r>").build().unwrap(),
/// );
/// let server = Server::bind(catalog, "127.0.0.1:0", ServerConfig::default()).unwrap();
///
/// let mut client = Client::connect(&server.addr().to_string()).unwrap();
/// let out = client.xpath("ms", "count(/descendant::w)").unwrap();
/// assert_eq!(out.serialized, "2");
///
/// assert!(server.shutdown());
/// ```
pub struct Server {
    addr: SocketAddr,
    catalog: Arc<Catalog>,
    evloop: EventLoop,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the
    /// `config.workers` event-loop threads.
    pub fn bind(catalog: Arc<Catalog>, addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let evloop = EventLoop::start(listener, "mhxd", config, Arc::clone(&catalog))?;
        Ok(Server { addr, catalog, evloop })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Catalog-wide default options the server was started with.
    pub fn options(&self) -> EvalOptions {
        self.catalog.options().clone()
    }

    pub fn stats(&self) -> ServerStats {
        self.evloop.hub.stats()
    }

    /// True once a client posted `/shutdown` (or [`Server::request_shutdown`]
    /// ran). The owner of the `Server` is expected to poll this and call
    /// [`Server::shutdown`] — a loop thread cannot join itself.
    pub fn shutdown_requested(&self) -> bool {
        self.evloop.hub.shutdown_requested()
    }

    /// Ask the owner loop to shut down (same effect as `POST /shutdown`).
    pub fn request_shutdown(&self) {
        self.evloop.hub.request_shutdown();
    }

    /// Graceful shutdown: stop accepting, drain the engine (in-flight
    /// queries finish, every response in progress is completed), join all
    /// threads. Returns true when the engine reached zero in-flight
    /// queries before the internal timeout.
    pub fn shutdown(mut self) -> bool {
        self.evloop.drain();
        self.catalog.begin_shutdown();
        // Every loop is woken immediately, finishes the responses it owes,
        // then exits.
        self.evloop.shutdown();
        self.catalog.drain(Duration::from_secs(30))
    }
}

fn engine_failure(e: &EngineError) -> (u16, Json) {
    (wire::status_for(e), wire::engine_error_body(e))
}

/// Run one request in a short-lived session on `doc` with the
/// connection's options, folding its counters into the connection's
/// `/stats` row. `Err` when the document cannot be opened.
fn in_session(
    catalog: &Catalog,
    conn: &ConnStats,
    doc: &str,
    opts: &EvalOptions,
    run: impl FnOnce(&Session<'_>) -> Result<QueryOutcome, EngineError>,
) -> Result<(u16, Json), (u16, Json)> {
    let session = catalog.session(doc).map_err(|e| engine_failure(&e))?.with_options(opts.clone());
    let result = run(&session);
    conn.add_eval(session.eval_stats());
    Ok(match result {
        Ok(out) => (200, wire::outcome_body(&out)),
        Err(e) => engine_failure(&e),
    })
}

/// The daemon executes on its catalog: one short-lived [`Session`] per
/// request, carrying the connection's options, whose evaluation
/// counters are folded into the connection's `/stats` row.
impl Service for Catalog {
    type Prepared = Prepared;

    fn conn_options(&self) -> EvalOptions {
        self.options().clone()
    }

    fn documents(&self) -> Result<Vec<Json>, (u16, Json)> {
        Ok(self
            .document_status()
            .into_iter()
            .map(|(id, residency, bytes)| {
                Json::Obj(vec![
                    ("id".into(), Json::Str(id)),
                    ("residency".into(), Json::Str(residency.name().into())),
                    ("snapshot_bytes".into(), Json::Num(bytes as f64)),
                ])
            })
            .collect())
    }

    fn query(
        &self,
        conn: &ConnStats,
        doc: &str,
        opts: &EvalOptions,
        lang: QueryLang,
        src: &str,
        explain: bool,
    ) -> Result<(u16, Json), (u16, Json)> {
        if !explain {
            return in_session(self, conn, doc, opts, |session| session.query(lang, src));
        }
        // Rendered, not evaluated — but the document is resolved and
        // pinned as for a real query, so explain-then-query behaves
        // identically.
        self.session(doc).map_err(|e| engine_failure(&e))?;
        Ok(match self.explain(doc, lang, src) {
            Ok(text) => (200, wire::explain_body(lang, &text)),
            Err(e) => engine_failure(&e),
        })
    }

    fn prepare(&self, lang: QueryLang, src: &str) -> Result<Prepared, (u16, Json)> {
        Catalog::prepare(self, lang, src).map_err(|e| engine_failure(&e))
    }

    fn execute(
        &self,
        conn: &ConnStats,
        doc: &str,
        opts: &EvalOptions,
        stmt: &Prepared,
    ) -> Result<(u16, Json), (u16, Json)> {
        in_session(self, conn, doc, opts, |session| session.run(stmt))
    }

    fn upload(&self, id: &str, hierarchies: &[(&str, &str)]) -> (u16, Json) {
        if self.is_shutting_down() {
            return engine_failure(&EngineError::ShuttingDown);
        }
        let mut builder = GoddagBuilder::new();
        for (name, xml) in hierarchies {
            builder = builder.hierarchy(*name, *xml);
        }
        // `put`, not `insert`: with a data directory attached the upload
        // is persisted before it is served (a failed write is a 500 and
        // registers nothing).
        match builder.build().map_err(EngineError::from).and_then(|g| self.put(id, g)) {
            Ok(()) => (
                200,
                Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("id".into(), Json::Str(id.into())),
                    ("hierarchies".into(), Json::Num(hierarchies.len() as f64)),
                ]),
            ),
            Err(e) => engine_failure(&e),
        }
    }

    fn stats(&self, hub: &Hub) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        let eval_fields = |e: EvalStats| {
            vec![
                ("batched_steps".to_string(), num(e.batched_steps)),
                ("rewritten_steps".into(), num(e.rewritten_steps)),
                ("plan_rewrites".into(), num(e.plan_rewrites)),
                ("early_exit_steps".into(), num(e.early_exit_steps)),
                ("hoisted_preds".into(), num(e.hoisted_preds)),
                ("chain_joins".into(), num(e.chain_joins)),
            ]
        };
        let sessions: Vec<Json> = hub
            .sessions()
            .into_iter()
            .map(|c| {
                let mut row = vec![
                    ("conn".to_string(), num(c.id)),
                    ("peer".into(), Json::Str(c.peer.clone())),
                    ("doc".into(), Json::Str(c.doc())),
                    ("requests".into(), num(c.requests.load(Ordering::Relaxed))),
                ];
                row.extend(eval_fields(c.eval()));
                Json::Obj(row)
            })
            .collect();
        let cache = self.cache_stats();
        let server = hub.stats();
        let store = self.store_stats();
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("hits".into(), num(cache.hits)),
                    ("misses".into(), num(cache.misses)),
                    ("evictions".into(), num(cache.evictions)),
                    ("cross_doc_hits".into(), num(cache.cross_doc_hits)),
                    ("entries".into(), num(cache.entries as u64)),
                ]),
            ),
            ("eval".into(), Json::Obj(eval_fields(self.eval_stats()))),
            (
                "server".into(),
                Json::Obj(vec![
                    ("workers".into(), num(hub.config.workers as u64)),
                    ("connections_accepted".into(), num(server.connections_accepted)),
                    ("requests".into(), num(server.requests)),
                    ("pipelined_requests".into(), num(server.pipelined_requests)),
                    ("active_connections".into(), num(sessions.len() as u64)),
                    ("sessions".into(), Json::Arr(sessions)),
                ]),
            ),
            ("documents".into(), num(self.len() as u64)),
            // Always present (all-zero without a data directory) so
            // clients need no shape detection.
            (
                "store".into(),
                Json::Obj(vec![
                    ("attached".into(), Json::Bool(store.attached)),
                    ("memory_budget".into(), store.budget.map_or(Json::Null, num)),
                    ("loads".into(), num(store.loads)),
                    ("evictions".into(), num(store.evictions)),
                    ("cold_start_hits".into(), num(store.cold_start_hits)),
                    ("bytes_on_disk".into(), num(store.bytes_on_disk)),
                    ("resident_docs".into(), num(store.resident_docs)),
                    ("resident_bytes".into(), num(store.resident_bytes)),
                ]),
            ),
        ])
    }
}

/// SIGINT/SIGTERM handling for the `mhxd` and `mhxr` owner threads:
/// [`install`](signal::install) routes both signals into an atomic flag,
/// [`wait`](signal::wait) polls it alongside the front end's own shutdown
/// request. Raw libc `signal(2)` through an `extern` declaration, the same
/// FFI discipline as the event loops' `epoll(7)`: std has no signal API
/// and the build is offline, but every unix target links libc anyway.
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    /// Route SIGINT and SIGTERM into the flag [`wait`] polls. Call it
    /// before announcing the listen address, so no signal finds the
    /// default handler.
    #[cfg(unix)]
    pub fn install() {
        extern "C" fn on_signal(_signum: i32) {
            // Only an atomic store: async-signal-safe.
            REQUESTED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: *const ()) -> *const ();
        }
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

    /// Elsewhere only the shutdown request ends [`wait`].
    #[cfg(not(unix))]
    pub fn install() {}

    /// Block until a signal arrived or `requested()` holds (a client
    /// posted `/shutdown`). The event loops cannot join themselves, so the
    /// owner thread waits here and then performs the shutdown.
    pub fn wait(requested: impl Fn() -> bool) {
        while !REQUESTED.load(Ordering::SeqCst) && !requested() {
            std::thread::sleep(Duration::from_millis(100));
        }
    }
}
