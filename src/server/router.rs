//! # `mhxr` — the shard router
//!
//! One JSON/HTTP front end over N `mhxd` backends, speaking the *same*
//! wire protocol clients already use — a client cannot tell a router
//! from a single node except for the extra `/stats` sections. The
//! protocol itself (route table, validation, document pin, options,
//! prepared-handle table) is `handler`'s, shared with `mhxd`; this module
//! is only the `Service` that executes a validated request on the
//! document's replica set instead of on a local catalog.
//!
//! ```text
//!                clients (keep-alive, wire protocol)
//!                          │
//!               Router (mhxr, evented front end)
//!     event loops → handler::route → RouterCore (this Service)
//!          consistent hash on document id (BackendPool)
//!            │                │                │
//!         mhxd shard 0     mhxd shard 1     mhxd shard 2
//! ```
//!
//! * **Routing** — `/query` and `/execute` go to their document's replica
//!   set ([`BackendPool::read_order`], round-robin across replicas).
//!   `PUT /documents/{id}` walks the ring and uploads to `--replicas K`
//!   distinct shards. Documents are immutable after upload, so
//!   replication is re-upload + deterministic placement — no consensus,
//!   and two routers over the same `--shard` list agree.
//! * **Scatter/gather** — `GET /documents` lists every shard's rows, one
//!   per id (from the first shard that lists it); `GET /stats` nests every
//!   shard's stats under `shards` plus a `router` section (backend
//!   health, failover counters, the idle backend-connection gauge).
//! * **Failover** — a connection error or the typed `503`/
//!   `shutting_down` drain signal from one shard retries the next
//!   replica; only when every replica failed does the client see an
//!   error, and it is the distinct `502`/`bad_gateway` kind. Any other
//!   response (including 4xx — deterministic on every replica) passes
//!   through verbatim. One loop (`RouterCore::try_replicas`) does this
//!   for every endpoint; each passes its per-backend exchange as a
//!   closure.
//! * **Prepared statements** — the connection's handle table holds
//!   router-level statements: `/prepare` validates eagerly on one
//!   backend, `/execute` lazily re-prepares the statement on whichever
//!   pooled backend connection the read lands on, so handles
//!   transparently survive failover *and* connection pooling.
//!
//! ## Multiplexed backend connections
//!
//! Backend connections are **pooled, not pinned**: a small LIFO free
//! list per shard (`RouterCore`) is shared by every client connection,
//! so a thousand idle clients parked on the router's event loops hold
//! zero backend sockets — backend connection count tracks *concurrent
//! request execution* (bounded by the worker count), not client count.
//! Because a pooled backend session is shared across clients, the router
//! injects the client's **complete** options object
//! (`wire::options_json`) into every forwarded `/query` and
//! `/execute`, making backend session state irrelevant per request. One
//! consequence: the wire defaults (not a backend catalog's custom
//! defaults) are what an option-silent client gets through the router.

use crate::engine::QueryLang;
use crate::server::client::{Client, ClientError};
use crate::server::event::{ConnStats, EventLoop, Hub};
use crate::server::handler::{Service, MAX_PREPARED_PER_CONN};
use crate::server::pool::BackendPool;
use crate::server::{wire, ServerConfig};
use mhx_json::Json;
use mhx_xquery::EvalOptions;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The running router: a bound listener and its event loops. Like
/// [`Server`](crate::server::Server), dropping without
/// [`Router::shutdown`] detaches the threads.
///
/// ```
/// use multihier_xquery::prelude::*;
/// use multihier_xquery::server::{client::Client, BackendPool, Router};
/// use multihier_xquery::server::{Server, ServerConfig};
/// use std::sync::Arc;
///
/// // One real shard…
/// let catalog = Arc::new(Catalog::new());
/// catalog.insert(
///     "ms",
///     GoddagBuilder::new().hierarchy("w", "<r><w>a</w><w>b</w></r>").build().unwrap(),
/// );
/// let shard = Server::bind(catalog, "127.0.0.1:0", ServerConfig::default()).unwrap();
///
/// // …fronted by a router speaking the identical wire protocol.
/// let pool = Arc::new(BackendPool::new(vec![shard.addr().to_string()], 1));
/// let router = Router::bind(pool, "127.0.0.1:0", ServerConfig::default()).unwrap();
///
/// let mut client = Client::connect(&router.addr().to_string()).unwrap();
/// let out = client.xpath("ms", "count(/descendant::w)").unwrap();
/// assert_eq!(out.serialized, "2");
///
/// router.shutdown();
/// shard.shutdown();
/// ```
pub struct Router {
    addr: SocketAddr,
    core: Arc<RouterCore>,
    evloop: EventLoop,
}

impl Router {
    /// Bind `addr` (port 0 for ephemeral) and start routing onto
    /// `backends`.
    pub fn bind(
        backends: Arc<BackendPool>,
        addr: &str,
        config: ServerConfig,
    ) -> io::Result<Router> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // The free list never needs to exceed the execution bound: at
        // most `workers` requests hold a backend connection at once.
        let core = Arc::new(RouterCore::new(backends, config.workers.max(1)));
        let evloop = EventLoop::start(listener, "mhxr", config, Arc::clone(&core))?;
        Ok(Router { addr, core, evloop })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The routing pool (placement + backend health).
    pub fn backends(&self) -> &Arc<BackendPool> {
        &self.core.pool
    }

    /// True once a client posted `/shutdown` (or
    /// [`Router::request_shutdown`] ran); the owner loop polls this.
    pub fn shutdown_requested(&self) -> bool {
        self.evloop.hub.shutdown_requested()
    }

    /// Ask the owner loop to shut down (same effect as `POST /shutdown`).
    pub fn request_shutdown(&self) {
        self.evloop.hub.request_shutdown();
    }

    /// Graceful shutdown of the *router only*: stop accepting, complete
    /// every response in progress, join all threads. The backends keep
    /// running — draining them is their owners' job.
    pub fn shutdown(mut self) {
        self.evloop.shutdown();
    }
}

/// How one backend attempt ended.
enum Attempt {
    /// A complete HTTP exchange that is not the drain signal — pass it
    /// through (4xx included: deterministic on every replica).
    Done(u16, Json),
    /// Connection error, garbled response, or the typed drain signal:
    /// try the next replica. Carries the reason for the 502 message.
    Failover(String),
}

/// A pooled connection to one backend: the client plus the statements
/// *this connection's server session* has compiled, keyed by the
/// canonical `/prepare` body.
struct PooledBackend {
    client: Client,
    prepared: HashMap<String, u64>,
}

impl PooledBackend {
    fn connect(addr: &str) -> io::Result<PooledBackend> {
        Ok(PooledBackend { client: Client::connect(addr)?, prepared: HashMap::new() })
    }
}

/// The router's [`Service`]: the placement pool, one LIFO free list of
/// pooled connections per backend, and the failover counters. Checkout
/// pops (or dials); checkin pushes back **only after a clean exchange** —
/// a transport error or drain signal drops the connection, which also
/// invalidates its server-session handle table for free.
pub(crate) struct RouterCore {
    pool: Arc<BackendPool>,
    idle: Vec<Mutex<Vec<PooledBackend>>>,
    idle_cap: usize,
    failovers: AtomicU64,
    re_prepares: AtomicU64,
}

/// One router-level prepared statement.
pub(crate) struct PreparedStmt {
    /// The canonical `/prepare` body — replayed on whichever pooled
    /// backend connection an execute lands on that has not compiled it.
    body: Json,
    /// Its identity on pooled sessions (the serialized body).
    key: String,
    /// Backend index that validated the statement eagerly.
    #[cfg_attr(not(test), allow(dead_code))]
    validated_on: usize,
}

/// Split a routed read's reply the way the protocol pins: the document
/// was not opened when no replica answered, or the one that did has no
/// such document.
fn opened((status, json): (u16, Json)) -> Result<(u16, Json), (u16, Json)> {
    match json.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str) {
        Some("unknown_document" | wire::BAD_GATEWAY_KIND) => Err((status, json)),
        _ => Ok((status, json)),
    }
}

impl RouterCore {
    pub(crate) fn new(pool: Arc<BackendPool>, idle_cap: usize) -> RouterCore {
        let idle = (0..pool.len()).map(|_| Mutex::new(Vec::new())).collect();
        RouterCore {
            pool,
            idle,
            idle_cap,
            failovers: AtomicU64::new(0),
            re_prepares: AtomicU64::new(0),
        }
    }

    /// Pop an idle pooled connection to backend `i`, or dial a fresh one.
    fn checkout(&self, i: usize) -> io::Result<PooledBackend> {
        match self.idle[i].lock().unwrap_or_else(PoisonError::into_inner).pop() {
            Some(b) => Ok(b),
            None => PooledBackend::connect(self.pool.addr(i)),
        }
    }

    /// Return a connection after a clean exchange (dropped if the free
    /// list is full).
    fn checkin(&self, i: usize, backend: PooledBackend) {
        let mut idle = self.idle[i].lock().unwrap_or_else(PoisonError::into_inner);
        if idle.len() < self.idle_cap {
            idle.push(backend);
        }
    }

    /// Idle pooled backend connections across all shards (the `/stats`
    /// gauge).
    fn idle_connections(&self) -> usize {
        self.idle.iter().map(|l| l.lock().unwrap_or_else(PoisonError::into_inner).len()).sum()
    }

    /// One `exchange` with backend `i` on a pooled connection, with health
    /// classification: transport failures and the drain signal become
    /// [`Attempt::Failover`] (and drop the connection); everything else
    /// checks the connection back in and passes through.
    fn attempt(
        &self,
        i: usize,
        exchange: impl FnOnce(usize, &mut PooledBackend) -> Result<(u16, Json), ClientError>,
    ) -> Attempt {
        let outcome = self.checkout(i).map_err(ClientError::from).and_then(|mut backend| {
            let reply = exchange(i, &mut backend)?;
            Ok((backend, reply))
        });
        match outcome {
            Ok((_, (status, json))) if wire::is_drain_envelope(status, &json) => {
                self.pool.mark_draining(i);
                Attempt::Failover(format!("{} is draining", self.pool.addr(i)))
            }
            Ok((backend, (status, json))) => {
                self.pool.mark_up(i);
                self.checkin(i, backend);
                Attempt::Done(status, json)
            }
            Err(e) => {
                self.pool.mark_down(i);
                Attempt::Failover(format!("{}: {e}", self.pool.addr(i)))
            }
        }
    }

    /// Run `exchange` on the backends of `order` until one completes it;
    /// exhausting the order is the router's own `502`/`bad_gateway`.
    fn try_replicas(
        &self,
        order: &[usize],
        mut exchange: impl FnMut(usize, &mut PooledBackend) -> Result<(u16, Json), ClientError>,
    ) -> (u16, Json) {
        let mut tried = Vec::new();
        for (k, &i) in order.iter().enumerate() {
            if k > 0 {
                self.failovers.fetch_add(1, Ordering::Relaxed);
            }
            match self.attempt(i, &mut exchange) {
                Attempt::Done(status, json) => return (status, json),
                Attempt::Failover(why) => tried.push(why),
            }
        }
        let body =
            wire::bad_gateway_body(&format!("all replicas unavailable ({})", tried.join("; ")));
        (502, body)
    }

    /// The handle pooled connection `b` (to backend `i`) holds for `stmt`,
    /// compiling it there first if needed — on a fresh connection when
    /// this one is at the backend's handle cap, rather than surfacing
    /// `too_many_prepared` for a cap the client never saw. `Ok(Err(_))`
    /// is the backend's refusal (a compile error, or the drain signal).
    fn backend_handle(
        &self,
        i: usize,
        b: &mut PooledBackend,
        stmt: &PreparedStmt,
    ) -> Result<Result<u64, (u16, Json)>, ClientError> {
        if let Some(&h) = b.prepared.get(&stmt.key) {
            return Ok(Ok(h));
        }
        if b.prepared.len() >= MAX_PREPARED_PER_CONN {
            *b = PooledBackend::connect(self.pool.addr(i))?;
        }
        let (status, json) = b.client.request("POST", "/prepare", Some(&stmt.body))?;
        if !(200..300).contains(&status) {
            return Ok(Err((status, json)));
        }
        let h = json
            .get("handle")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("malformed /prepare response".into()))?;
        b.prepared.insert(stmt.key.clone(), h);
        Ok(Ok(h))
    }
}

impl Service for RouterCore {
    type Prepared = PreparedStmt;

    fn conn_options(&self) -> EvalOptions {
        EvalOptions::default()
    }

    /// Scatter `GET /documents` to every backend and merge the rows, one
    /// per id. Succeeds while at least one shard answers (a dead shard's
    /// documents are on their replicas anyway when `--replicas` > 1).
    fn documents(&self) -> Result<Vec<Json>, (u16, Json)> {
        let mut rows = BTreeMap::new();
        let mut any_ok = false;
        let mut errors = Vec::new();
        for i in 0..self.pool.len() {
            match self.attempt(i, |_, b| b.client.request("GET", "/documents", None)) {
                Attempt::Done(status, json) if (200..300).contains(&status) => {
                    match json.get("documents").and_then(Json::as_arr) {
                        Some(docs) => {
                            any_ok = true;
                            for row in docs {
                                if let Some(id) = row.get("id").and_then(Json::as_str) {
                                    rows.entry(id.to_string()).or_insert_with(|| row.clone());
                                }
                            }
                        }
                        None => errors.push(format!("{}: malformed /documents", self.pool.addr(i))),
                    }
                }
                Attempt::Done(status, _) => {
                    errors.push(format!("{}: status {status}", self.pool.addr(i)));
                }
                Attempt::Failover(why) => errors.push(why),
            }
        }
        if !any_ok {
            let message = format!("no shard answered /documents ({})", errors.join("; "));
            return Err((502, wire::bad_gateway_body(&message)));
        }
        Ok(rows.into_values().collect())
    }

    fn query(
        &self,
        _conn: &ConnStats,
        doc: &str,
        opts: &EvalOptions,
        lang: QueryLang,
        src: &str,
        explain: bool,
    ) -> Result<(u16, Json), (u16, Json)> {
        let mut fwd = vec![
            ("doc".to_string(), Json::Str(doc.into())),
            ("lang".into(), Json::Str(lang.name().into())),
            ("query".into(), Json::Str(src.into())),
            ("options".into(), wire::options_json(opts)),
        ];
        if explain {
            fwd.push(("explain".into(), Json::Bool(true)));
        }
        let fwd = Json::Obj(fwd);
        opened(self.try_replicas(&self.pool.read_order(doc), |_, b| {
            b.client.request("POST", "/query", Some(&fwd))
        }))
    }

    /// Eager validation on one backend: compile errors surface now,
    /// exactly as on a single node. The compiled handle stays with that
    /// *pooled connection* — whoever checks it out next reuses it.
    fn prepare(&self, lang: QueryLang, src: &str) -> Result<PreparedStmt, (u16, Json)> {
        let body = Json::Obj(vec![
            ("lang".into(), Json::Str(lang.name().into())),
            ("query".into(), Json::Str(src.into())),
        ]);
        let stmt = PreparedStmt { key: body.to_string(), body, validated_on: 0 };
        let mut validated_on = None;
        let reply = self.try_replicas(&self.pool.any_order(), |i, b| {
            Ok(match self.backend_handle(i, b, &stmt)? {
                Ok(_) => {
                    validated_on = Some(i);
                    (200, Json::Null)
                }
                Err(refusal) => refusal,
            })
        });
        match validated_on {
            Some(i) => Ok(PreparedStmt { validated_on: i, ..stmt }),
            None => Err(reply),
        }
    }

    /// Runs on whichever pooled backend connection the read lands on,
    /// re-preparing the statement there first if that connection's server
    /// session has not compiled it.
    fn execute(
        &self,
        _conn: &ConnStats,
        doc: &str,
        opts: &EvalOptions,
        stmt: &PreparedStmt,
    ) -> Result<(u16, Json), (u16, Json)> {
        let options = wire::options_json(opts);
        opened(self.try_replicas(&self.pool.read_order(doc), |i, b| {
            let cached = b.prepared.contains_key(&stmt.key);
            let handle = match self.backend_handle(i, b, stmt)? {
                Ok(h) => h,
                Err(refusal) => return Ok(refusal),
            };
            if !cached {
                self.re_prepares.fetch_add(1, Ordering::Relaxed);
            }
            let fwd = Json::Obj(vec![
                ("doc".into(), Json::Str(doc.into())),
                ("handle".into(), Json::Num(handle as f64)),
                ("options".into(), options.clone()),
            ]);
            b.client.request("POST", "/execute", Some(&fwd))
        }))
    }

    /// Upload `id` to its replica set, walking the ring past dead
    /// backends so the document still lands `replicas` times when a
    /// preferred shard is down.
    fn upload(&self, id: &str, hierarchies: &[(&str, &str)]) -> (u16, Json) {
        let items = hierarchies
            .iter()
            .map(|(name, xml)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str((*name).into())),
                    ("xml".into(), Json::Str((*xml).into())),
                ])
            })
            .collect();
        let body = Json::Obj(vec![("hierarchies".into(), Json::Arr(items))]);
        let path = format!("/documents/{id}");
        let want = self.pool.replicas();
        let mut placed = Vec::new();
        let mut tried = Vec::new();
        for i in self.pool.ring_order(id) {
            if placed.len() == want {
                break;
            }
            match self.attempt(i, |_, b| b.client.request("PUT", &path, Some(&body))) {
                Attempt::Done(status, _) if (200..300).contains(&status) => placed.push(i),
                // A deterministic rejection (malformed hierarchy, bad id)
                // would fail identically on every shard: surface it. Any
                // shard that already accepted keeps the document — uploads
                // of a fixed id are idempotent, so a client retry heals.
                Attempt::Done(status, json) => return (status, json),
                Attempt::Failover(why) => tried.push(why),
            }
        }
        self.failovers.fetch_add(tried.len() as u64, Ordering::Relaxed);
        if placed.is_empty() {
            let body =
                wire::bad_gateway_body(&format!("no shard accepted `{id}` ({})", tried.join("; ")));
            return (502, body);
        }
        self.pool.record_placement(id, placed.clone());
        let shards: Vec<Json> =
            placed.iter().map(|&i| Json::Str(self.pool.addr(i).into())).collect();
        (
            200,
            Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("id".into(), Json::Str(id.into())),
                ("replicas".into(), Json::Num(placed.len() as f64)),
                ("shards".into(), Json::Arr(shards)),
            ]),
        )
    }

    /// Scatter `GET /stats`, gather per-shard stats plus the router's own
    /// health/counter section and cross-shard totals.
    fn stats(&self, hub: &Hub) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        let mut shards = Vec::new();
        let mut shard_requests = 0u64;
        let mut shard_documents = 0u64;
        for i in 0..self.pool.len() {
            let addr = self.pool.addr(i).to_string();
            match self.attempt(i, |_, b| b.client.request("GET", "/stats", None)) {
                Attempt::Done(status, json) if (200..300).contains(&status) => {
                    shard_requests += json
                        .get("server")
                        .and_then(|s| s.get("requests"))
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                    shard_documents += json.get("documents").and_then(Json::as_u64).unwrap_or(0);
                    shards.push(Json::Obj(vec![
                        ("addr".into(), Json::Str(addr)),
                        ("stats".into(), json),
                    ]));
                }
                _ => shards.push(Json::Obj(vec![
                    ("addr".into(), Json::Str(addr)),
                    ("error".into(), Json::Str("unreachable or draining".into())),
                ])),
            }
        }
        let backends: Vec<Json> = self
            .pool
            .health_snapshot()
            .into_iter()
            .map(|h| {
                Json::Obj(vec![
                    ("addr".into(), Json::Str(h.addr)),
                    ("healthy".into(), Json::Bool(h.healthy)),
                    ("draining".into(), Json::Bool(h.draining)),
                    ("failures".into(), num(h.failures)),
                    ("successes".into(), num(h.successes)),
                ])
            })
            .collect();
        let server = hub.stats();
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            (
                "router".into(),
                Json::Obj(vec![
                    ("workers".into(), num(hub.config.workers as u64)),
                    ("replicas".into(), num(self.pool.replicas() as u64)),
                    ("connections_accepted".into(), num(server.connections_accepted)),
                    ("requests".into(), num(server.requests)),
                    ("pipelined_requests".into(), num(server.pipelined_requests)),
                    ("failovers".into(), num(self.failovers.load(Ordering::Relaxed))),
                    ("re_prepares".into(), num(self.re_prepares.load(Ordering::Relaxed))),
                    ("idle_backend_connections".into(), num(self.idle_connections() as u64)),
                    ("backends".into(), Json::Arr(backends)),
                ]),
            ),
            (
                "totals".into(),
                Json::Obj(vec![
                    ("shard_requests".into(), num(shard_requests)),
                    ("shard_documents".into(), num(shard_documents)),
                ]),
            ),
            ("shards".into(), Json::Arr(shards)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Catalog;
    use crate::server::Server;
    use mhx_goddag::GoddagBuilder;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    const DRAIN_BODY: &str =
        r#"{"ok":false,"error":{"kind":"shutting_down","message":"draining"}}"#;
    const NOT_FOUND_BODY: &str =
        r#"{"ok":false,"error":{"kind":"unknown_document","message":"no document `ms`"}}"#;

    /// A canned-response backend: answers every request on every
    /// connection with `status` + `body`, counting requests served.
    fn mock_backend(status: u16, body: &'static str) -> (String, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hits = Arc::new(AtomicUsize::new(0));
        let shared_hits = Arc::clone(&hits);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut s) = stream else { continue };
                let hits = Arc::clone(&shared_hits);
                std::thread::spawn(move || {
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 4096];
                    loop {
                        // Read one Content-Length-framed request.
                        let end = loop {
                            if let Some(he) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                                let head = String::from_utf8_lossy(&buf[..he]).to_string();
                                let len = head
                                    .lines()
                                    .filter_map(|l| {
                                        l.to_ascii_lowercase()
                                            .strip_prefix("content-length:")
                                            .and_then(|v| v.trim().parse::<usize>().ok())
                                    })
                                    .next()
                                    .unwrap_or(0);
                                if buf.len() >= he + 4 + len {
                                    break he + 4 + len;
                                }
                            }
                            match s.read(&mut chunk) {
                                Ok(0) => return,
                                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                                Err(_) => return,
                            }
                        };
                        buf.drain(..end);
                        hits.fetch_add(1, Ordering::SeqCst);
                        let resp = format!(
                            "HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n\
                             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                            body.len()
                        );
                        if s.write_all(resp.as_bytes()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        (addr, hits)
    }

    fn error_kind_of(json: &Json) -> &str {
        json.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str).unwrap_or("")
    }

    /// A routed `count(/descendant::w)` on `doc`, pinnable or not.
    fn query(core: &RouterCore, doc: &str) -> (u16, Json) {
        let opts = EvalOptions::default();
        let conn = ConnStats::default();
        let reply = core.query(&conn, doc, &opts, QueryLang::XPath, "count(/descendant::w)", false);
        reply.unwrap_or_else(|not_opened| not_opened)
    }

    fn execute(core: &RouterCore, stmt: &PreparedStmt) -> (u16, Json) {
        let opts = EvalOptions::default();
        let reply = core.execute(&ConnStats::default(), "ms", &opts, stmt);
        reply.unwrap_or_else(|not_opened| not_opened)
    }

    #[test]
    fn a_drain_signal_retries_each_replica_exactly_once_then_502s() {
        let (a, hits_a) = mock_backend(503, DRAIN_BODY);
        let (b, hits_b) = mock_backend(503, DRAIN_BODY);
        let pool = Arc::new(BackendPool::new(vec![a, b], 2));
        let core = RouterCore::new(Arc::clone(&pool), 4);
        let (status, json) = query(&core, "ms");
        assert_eq!(status, 502);
        assert_eq!(error_kind_of(&json), wire::BAD_GATEWAY_KIND);
        assert_eq!(hits_a.load(Ordering::SeqCst), 1, "each replica tried exactly once");
        assert_eq!(hits_b.load(Ordering::SeqCst), 1, "each replica tried exactly once");
        assert_eq!(core.failovers.load(Ordering::SeqCst), 1, "one retry beyond the first attempt");
        let health = pool.health_snapshot();
        assert!(health.iter().all(|h| h.draining && !h.healthy), "both marked draining");
        assert_eq!(core.idle_connections(), 0, "drain attempts never pool their connection");
    }

    #[test]
    fn a_non_retryable_4xx_surfaces_immediately_without_failover() {
        let (a, hits_a) = mock_backend(404, NOT_FOUND_BODY);
        let (b, hits_b) = mock_backend(404, NOT_FOUND_BODY);
        let pool = Arc::new(BackendPool::new(vec![a, b], 2));
        // Which mock leads the replica set is hash-determined — read it
        // off the pool instead of assuming (the first read uses the
        // cursor's initial rotation, i.e. the unrotated set).
        let first = pool.replica_set("ms")[0];
        let core = RouterCore::new(Arc::clone(&pool), 4);
        let (status, json) = query(&core, "ms");
        assert_eq!(status, 404);
        assert_eq!(error_kind_of(&json), "unknown_document");
        let (h_first, h_other) = if first == 0 { (&hits_a, &hits_b) } else { (&hits_b, &hits_a) };
        assert_eq!(h_first.load(Ordering::SeqCst), 1, "only the first replica is asked");
        assert_eq!(h_other.load(Ordering::SeqCst), 0, "a 4xx never fails over");
        assert_eq!(core.failovers.load(Ordering::SeqCst), 0);
        assert_eq!(core.idle_connections(), 1, "the clean exchange pooled its connection");
    }

    fn live_shard(docs: &[&str]) -> Server {
        let catalog = Arc::new(Catalog::new());
        for id in docs {
            catalog.insert(
                *id,
                GoddagBuilder::new().hierarchy("w", "<r><w>a</w><w>b</w></r>").build().unwrap(),
            );
        }
        Server::bind(
            catalog,
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                poll_interval: Duration::from_millis(5),
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn prepared_handles_re_prepare_transparently_after_failover() {
        let mut shards = vec![Some(live_shard(&["ms"])), Some(live_shard(&["ms"]))];
        let addrs: Vec<String> =
            shards.iter().map(|s| s.as_ref().unwrap().addr().to_string()).collect();
        let pool = Arc::new(BackendPool::new(addrs, 2));
        let core = RouterCore::new(Arc::clone(&pool), 4);

        let prepare = || core.prepare(QueryLang::XPath, "count(/descendant::w)");
        let stmt = prepare().unwrap_or_else(|(status, json)| panic!("{status} {json}"));

        // Kill the one backend that validated the statement before any
        // execute: every execute path must now transparently re-prepare
        // on the surviving replica's pooled connection.
        let owner = stmt.validated_on;
        let re_prepares = || core.re_prepares.load(Ordering::SeqCst);
        assert_eq!(re_prepares(), 0, "the eager prepare is not a re-prepare");
        shards[owner].take().unwrap().shutdown();

        let (status, json) = execute(&core, &stmt);
        assert_eq!(status, 200, "{json}");
        assert_eq!(json.get("serialized").and_then(Json::as_str), Some("2"));
        assert!(re_prepares() >= 1, "the statement was re-prepared after failover");

        // And the re-prepared handle stays with the pooled connection: a
        // second execute reuses it.
        let before = re_prepares();
        let (status, json) = execute(&core, &stmt);
        assert_eq!(status, 200, "{json}");
        assert_eq!(json.get("serialized").and_then(Json::as_str), Some("2"));
        assert_eq!(re_prepares(), before, "handle cached on the survivor's connection");

        // A *different* client connection through the same core also
        // reuses the pooled statement — the handle table travels with
        // the backend connection, not the client.
        if let Err((status, json)) = prepare() {
            panic!("{status} {json}");
        }

        for s in shards.into_iter().flatten() {
            s.shutdown();
        }
    }

    #[test]
    fn uploads_replicate_to_k_shards_and_documents_merge() {
        let shards = [live_shard(&[]), live_shard(&[])];
        let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
        let pool = Arc::new(BackendPool::new(addrs, 2));
        let core = RouterCore::new(Arc::clone(&pool), 4);

        let (status, json) = core.upload("novel", &[("w", "<r><w>a</w><w>b</w></r>")]);
        assert_eq!(status, 200, "{json}");
        assert_eq!(json.get("replicas").and_then(Json::as_u64), Some(2));
        for shard in &shards {
            assert!(
                shard.catalog().document_ids().contains(&"novel".to_string()),
                "every shard holds its replica"
            );
        }
        let ids = core.documents().unwrap_or_else(|(status, json)| panic!("{status} {json}"));
        assert_eq!(ids.len(), 1, "replicas merge to one id: {ids:?}");

        let (status, json) = query(&core, "novel");
        assert_eq!(status, 200, "{json}");
        assert_eq!(json.get("serialized").and_then(Json::as_str), Some("2"));

        for s in shards {
            s.shutdown();
        }
    }
}
