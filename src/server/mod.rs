//! # `mhxd` — the catalog on the wire
//!
//! A std-only **evented** HTTP/1.1 front end for [`Catalog`]: a fixed set
//! of readiness loops (raw `epoll(7)` on Linux, see `event.rs`), one per
//! worker, each owning its share of the client sockets in nonblocking
//! mode, parsing requests incrementally and running each complete request
//! inline on the thread that read it. Thread count is `workers`
//! regardless of connection count, so thousands of idle keep-alive
//! clients cost a connection-table entry each, not a thread each.
//! Per-connection state (pinned document, per-connection
//! [`EvalOptions`] knobs, prepared-statement handles) lives in its loop's
//! connection table and never leaves that thread.
//!
//! ```text
//!                      TcpListener (watched by every loop)
//!            ┌───────────────┼───────────────┐
//!         loop 0          loop 1    …     loop N-1    (ServerConfig::workers)
//!   accept → hand the socket to the loop with the fewest connections
//!   connection table: token → buffers + ConnState (doc pin, prepared,
//!     options); parse → route → respond, inline, then flush
//!            └───────────────┼───────────────┘
//!        Session ──► Catalog (&self queries, shared plan cache)
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
//! **Graceful shutdown.** [`Server::shutdown`] flips the drain flag,
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
pub use router::{Router, RouterConfig};
pub use wire::{error_kind, parse_lang, status_for, WireOutcome};

use crate::engine::{Catalog, EvalStats};
use event::{EventConfig, EventLoop, Service};
use mhx_json::Json;
use mhx_xquery::EvalOptions;
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Tuning knobs for [`Server::bind`].
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

/// Per-connection bookkeeping published to `/stats`: the request count,
/// the pinned document, and the session's evaluation counters.
pub(crate) struct ConnStats {
    pub(crate) id: u64,
    pub(crate) peer: String,
    pub(crate) requests: AtomicU64,
    doc: Mutex<String>,
    batched_steps: AtomicU64,
    rewritten_steps: AtomicU64,
    plan_rewrites: AtomicU64,
    early_exit_steps: AtomicU64,
    hoisted_preds: AtomicU64,
    chain_joins: AtomicU64,
}

impl ConnStats {
    pub(crate) fn set_doc(&self, doc: &str) {
        *self.doc.lock().unwrap_or_else(PoisonError::into_inner) = doc.to_string();
    }

    /// Publish the connection's current cumulative eval counters.
    pub(crate) fn record_eval(&self, stats: EvalStats) {
        self.batched_steps.store(stats.batched_steps, Ordering::Relaxed);
        self.rewritten_steps.store(stats.rewritten_steps, Ordering::Relaxed);
        self.plan_rewrites.store(stats.plan_rewrites, Ordering::Relaxed);
        self.early_exit_steps.store(stats.early_exit_steps, Ordering::Relaxed);
        self.hoisted_preds.store(stats.hoisted_preds, Ordering::Relaxed);
        self.chain_joins.store(stats.chain_joins, Ordering::Relaxed);
    }
}

/// A `/stats`-shaped snapshot of one connection.
pub(crate) struct ConnSnapshot {
    pub(crate) id: u64,
    pub(crate) peer: String,
    pub(crate) doc: String,
    pub(crate) requests: u64,
    pub(crate) eval: EvalStats,
}

/// State shared by the event loops and the [`Server`] handle.
pub(crate) struct Shared {
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) config: ServerConfig,
    shutdown: AtomicBool,
    pub(crate) shutdown_requested: AtomicBool,
    pub(crate) accepted: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) pipelined: AtomicU64,
    next_conn: AtomicU64,
    conns: Mutex<BTreeMap<u64, Arc<ConnStats>>>,
}

impl Shared {
    pub(crate) fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn register_conn(&self, stream: &TcpStream) -> Arc<ConnStats> {
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed) + 1;
        let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into());
        let conn = Arc::new(ConnStats {
            id,
            peer,
            requests: AtomicU64::new(0),
            doc: Mutex::new(String::new()),
            batched_steps: AtomicU64::new(0),
            rewritten_steps: AtomicU64::new(0),
            plan_rewrites: AtomicU64::new(0),
            early_exit_steps: AtomicU64::new(0),
            hoisted_preds: AtomicU64::new(0),
            chain_joins: AtomicU64::new(0),
        });
        self.conns.lock().unwrap_or_else(PoisonError::into_inner).insert(id, Arc::clone(&conn));
        conn
    }

    pub(crate) fn unregister_conn(&self, id: u64) {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner).remove(&id);
    }

    pub(crate) fn conn_snapshot(&self) -> Vec<ConnSnapshot> {
        self.conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|c| ConnSnapshot {
                id: c.id,
                peer: c.peer.clone(),
                doc: c.doc.lock().unwrap_or_else(PoisonError::into_inner).clone(),
                requests: c.requests.load(Ordering::Relaxed),
                eval: EvalStats {
                    batched_steps: c.batched_steps.load(Ordering::Relaxed),
                    rewritten_steps: c.rewritten_steps.load(Ordering::Relaxed),
                    plan_rewrites: c.plan_rewrites.load(Ordering::Relaxed),
                    early_exit_steps: c.early_exit_steps.load(Ordering::Relaxed),
                    hoisted_preds: c.hoisted_preds.load(Ordering::Relaxed),
                    chain_joins: c.chain_joins.load(Ordering::Relaxed),
                },
            })
            .collect()
    }
}

/// The daemon's [`Service`]: glues the event loops to the engine — counts
/// connections and requests, owns the drain flag, and routes each
/// complete request through [`handler`].
struct ServerService {
    shared: Arc<Shared>,
}

/// One connection's entry payload: its `/stats` row plus the handler
/// state (document pin, prepared handles, options).
struct ServerConn {
    stats: Arc<ConnStats>,
    state: handler::ConnState,
}

impl Service for ServerService {
    type Conn = ServerConn;

    fn connect(&self, stream: &TcpStream) -> ServerConn {
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        let stats = self.shared.register_conn(stream);
        let state = handler::ConnState::new(self.shared.catalog.options().clone());
        ServerConn { stats, state }
    }

    fn handle(&self, conn: &mut ServerConn, req: &http::Request) -> (u16, Json) {
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        conn.stats.requests.fetch_add(1, Ordering::Relaxed);
        let out =
            handler::route(&self.shared, &self.shared.catalog, &conn.stats, &mut conn.state, req);
        conn.stats.record_eval(conn.state.eval_stats());
        out
    }

    fn disconnect(&self, conn: ServerConn) {
        self.shared.unregister_conn(conn.stats.id);
    }

    fn draining(&self) -> bool {
        self.shared.draining()
    }

    fn note_pipelined(&self) {
        self.shared.pipelined.fetch_add(1, Ordering::Relaxed);
    }
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
    shared: Arc<Shared>,
    evloop: EventLoop,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the
    /// `config.workers` event-loop threads.
    pub fn bind(catalog: Arc<Catalog>, addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            catalog,
            config: ServerConfig { workers, ..config },
            shutdown: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            pipelined: AtomicU64::new(0),
            next_conn: AtomicU64::new(0),
            conns: Mutex::new(BTreeMap::new()),
        });
        let evloop = EventLoop::start(
            listener,
            "mhxd",
            workers,
            EventConfig {
                poll_interval: shared.config.poll_interval,
                request_timeout: shared.config.request_timeout,
                max_body: shared.config.max_body,
                max_idle: shared.config.max_idle,
            },
            Arc::new(ServerService { shared: Arc::clone(&shared) }),
        )?;
        Ok(Server { addr: local, shared, evloop })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.shared.catalog
    }

    /// Catalog-wide default options the server was started with.
    pub fn options(&self) -> EvalOptions {
        self.shared.catalog.options().clone()
    }

    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections_accepted: self.shared.accepted.load(Ordering::Relaxed),
            requests: self.shared.requests.load(Ordering::Relaxed),
            pipelined_requests: self.shared.pipelined.load(Ordering::Relaxed),
            active_connections: self
                .shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
        }
    }

    /// True once a client posted `/shutdown` (or [`Server::request_shutdown`]
    /// ran). The owner of the `Server` is expected to poll this and call
    /// [`Server::shutdown`] — a loop thread cannot join itself.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Ask the owner loop to shut down (same effect as `POST /shutdown`).
    pub fn request_shutdown(&self) {
        self.shared.shutdown_requested.store(true, Ordering::SeqCst);
    }

    /// Graceful shutdown: stop accepting, drain the engine (in-flight
    /// queries finish, every response in progress is completed), join all
    /// threads. Returns true when the engine reached zero in-flight
    /// queries before the internal timeout.
    pub fn shutdown(mut self) -> bool {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.catalog.begin_shutdown();
        // Every loop is woken immediately, finishes the responses it owes,
        // then exits.
        self.evloop.shutdown();
        self.shared.catalog.drain(Duration::from_secs(30))
    }
}
