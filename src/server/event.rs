//! The evented front end shared by `mhxd` ([`Server`](crate::server::Server))
//! and `mhxr` ([`Router`](crate::server::Router)): `workers` readiness
//! loops, each a complete server with its own poller, waker and
//! connection table. A loop owns its share of the client sockets in
//! nonblocking mode, parses requests incrementally off readiness
//! notifications, and runs every complete request **inline**, on the
//! thread that read it. Thread count is `workers`, independent of
//! connection count — a thousand parked keep-alive clients cost a
//! connection-table entry each, not a thread each — and since a loop runs
//! one request at a time, `workers` is also the bound on concurrently
//! executing requests. Each complete request goes to the one protocol
//! layer, `handler::route`, with the front end's [`Service`] (the catalog
//! or the router) as the place it executes.
//!
//! Everything the loops share lives once in the [`Hub`], for both front
//! ends: the [`ServerConfig`], the drain and shutdown-request flags, the
//! `accepted`/`requests`/`pipelined` counters and the registry of
//! per-connection `/stats` rows ([`ConnStats`]).
//!
//! On Linux each loop is raw `epoll(7)` via the same raw-libc discipline
//! as `server::signal`'s `signal(2)` — no tokio, no mio, offline build.
//! Elsewhere a degraded tick-based poller keeps the build portable (see
//! [`sys`]).
//!
//! ## Accept
//!
//! Every loop watches the listener (`EPOLLEXCLUSIVE` on Linux, so a new
//! connection wakes one *idle* loop and a loop busy executing never
//! delays an accept). The accepting loop hands the socket to the loop
//! with the fewest live connections — ties rotate — through that loop's
//! inbox and waker (or keeps it, if that loop is itself). The hand-off
//! runs once per connection, never per request. When `accept` fails for want of descriptors
//! (`EMFILE`/`ENFILE`) the connection stays in the backlog, so the loop
//! drops its listener interest until the next poll tick or until one of
//! its connections closes, rather than spinning on level-triggered
//! readiness.
//!
//! ## Connection table
//!
//! Connections live in their loop's table keyed by a monotonically
//! increasing **token** (never reused, so a stale readiness event for a
//! closed fd cannot hit a recycled connection). Each entry carries the
//! socket, the incremental parse buffer + scan offset, the ordered output
//! buffer, and the protocol's per-connection state ([`ConnState`] —
//! document pin, prepared handles, options), which never leaves the loop
//! and so needs neither a lock nor `Send`.
//!
//! ## Pipelining
//!
//! Requests parse ahead in batches of up to [`PIPELINE_MAX`] and execute
//! **serially per connection**: each response is appended to the output
//! buffer in arrival order, the next request runs, and then the buffer
//! flushes. Reads pause (interest is dropped) while the output backlog is
//! over [`OUT_MAX`]; level-triggered readiness re-fires when interest
//! returns. Running inline trades one thing away: a long request delays
//! the other connections that share its loop (never those on other
//! loops) until it finishes.
//!
//! ## Drain
//!
//! Once [`EventLoop::drain`] flips the hub's flag, every loop stops
//! admitting sockets, closes idle connections within one poll interval,
//! and keeps running until every response it owes has been *completely
//! written* — a response in progress is never truncated. Half-received
//! requests get the request timeout to finish (the same slow-loris bound
//! that applies while serving), and a hard deadline backstops a peer that
//! never reads its response.

use crate::engine::EvalStats;
use crate::server::handler::{self, ConnState, Service};
use crate::server::http::{self, ParseError, Request};
use crate::server::{wire, ServerConfig, ServerStats};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// One connection's `/stats` row: its request count, pinned document and
/// evaluation counters. Registered in the [`Hub`] while the connection
/// lives, so `/stats` on any loop can list every session.
#[derive(Default)]
pub(crate) struct ConnStats {
    pub(crate) id: u64,
    pub(crate) peer: String,
    pub(crate) requests: AtomicU64,
    doc: Mutex<String>,
    eval: Mutex<EvalStats>,
}

impl ConnStats {
    pub(crate) fn set_doc(&self, doc: &str) {
        *self.doc.lock().unwrap_or_else(PoisonError::into_inner) = doc.to_string();
    }

    pub(crate) fn doc(&self) -> String {
        self.doc.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Fold one request's evaluation counters into the connection's.
    pub(crate) fn add_eval(&self, stats: EvalStats) {
        self.eval.lock().unwrap_or_else(PoisonError::into_inner).absorb(&stats);
    }

    pub(crate) fn eval(&self) -> EvalStats {
        *self.eval.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

const TOKEN_LISTENER: u64 = 0;
const FIRST_CONN_TOKEN: u64 = 1;

/// Parse-ahead cap per batch: pipelined requests beyond this wait in the
/// read buffer until the batch before them has run.
const PIPELINE_MAX: usize = 64;
/// Output-backlog cap per connection before reads pause (a client that
/// pipelines but never reads responses must not buffer unbounded).
const OUT_MAX: usize = 1 << 20;
/// Read chunk size per readiness notification.
const CHUNK: usize = 16 * 1024;
/// Hard backstop for drain: after this, still-open connections (a peer
/// not reading its response, a half-request that never finished) are
/// force-closed so shutdown terminates. In-flight *execution* is bounded
/// by the engine's own drain, which the owner runs after the loops exit.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// What a loop shows its siblings: an inbox for sockets handed to it, the
/// waker that makes it look, and its live-connection count, which the
/// hand-off balances on.
struct Peer {
    inbox: Mutex<Vec<TcpStream>>,
    waker: sys::Waker,
    live: AtomicUsize,
}

/// What every loop shares: the listener, one [`Peer`] per loop, the
/// accept count that rotates hand-off ties — and the front end's config,
/// drain and shutdown-request flags, counters and session registry, which
/// live here once for `mhxd` and `mhxr` alike.
pub(crate) struct Hub {
    listener: TcpListener,
    peers: Vec<Peer>,
    accepts: AtomicUsize,
    pub(crate) config: ServerConfig,
    draining: AtomicBool,
    shutdown_requested: AtomicBool,
    accepted: AtomicU64,
    requests: AtomicU64,
    pipelined: AtomicU64,
    next_conn: AtomicU64,
    conns: Mutex<BTreeMap<u64, Arc<ConnStats>>>,
}

impl Hub {
    /// True once [`EventLoop::drain`] ran: loops stop admitting and close
    /// connections as soon as they owe nothing.
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Ask the owner thread to shut down (a loop cannot join itself).
    pub(crate) fn request_shutdown(&self) {
        self.shutdown_requested.store(true, Ordering::SeqCst);
    }

    pub(crate) fn stats(&self) -> ServerStats {
        ServerStats {
            connections_accepted: self.accepted.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            pipelined_requests: self.pipelined.load(Ordering::Relaxed),
            active_connections: self.conns.lock().unwrap_or_else(PoisonError::into_inner).len(),
        }
    }

    /// The live connections' `/stats` rows, in connection order.
    pub(crate) fn sessions(&self) -> Vec<Arc<ConnStats>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner).values().cloned().collect()
    }

    fn register_conn(&self, stream: &TcpStream) -> Arc<ConnStats> {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed) + 1;
        let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into());
        let conn = Arc::new(ConnStats { id, peer, ..ConnStats::default() });
        self.conns.lock().unwrap_or_else(PoisonError::into_inner).insert(id, Arc::clone(&conn));
        conn
    }
}

/// Handle to the running loops.
pub(crate) struct EventLoop {
    threads: Vec<thread::JoinHandle<()>>,
    pub(crate) hub: Arc<Hub>,
}

impl EventLoop {
    /// Start `config.workers` loop threads (named `{name}-loop-{i}`) that
    /// share the listener and accept on it themselves — no acceptor
    /// thread.
    pub(crate) fn start<S: Service>(
        listener: TcpListener,
        name: &str,
        config: ServerConfig,
        service: Arc<S>,
    ) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let workers = config.workers.max(1);
        let mut pollers = Vec::new();
        let mut peers = Vec::new();
        for _ in 0..workers {
            let (mut poller, waker) = sys::Poller::new()?;
            poller.register_listener(raw_fd(&listener), TOKEN_LISTENER)?;
            pollers.push(poller);
            peers.push(Peer { inbox: Mutex::new(Vec::new()), waker, live: AtomicUsize::new(0) });
        }
        let hub = Arc::new(Hub {
            listener,
            peers,
            accepts: AtomicUsize::new(0),
            config: ServerConfig { workers, ..config },
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            pipelined: AtomicU64::new(0),
            next_conn: AtomicU64::new(0),
            conns: Mutex::new(BTreeMap::new()),
        });
        let threads = pollers
            .into_iter()
            .enumerate()
            .map(|(id, poller)| {
                let service = Arc::clone(&service);
                let hub = Arc::clone(&hub);
                thread::Builder::new()
                    .name(format!("{name}-loop-{id}"))
                    .spawn(move || {
                        // Built on its own thread: the connection table,
                        // and the per-connection state in it, never
                        // crosses threads.
                        Loop {
                            id,
                            poller,
                            listening: true,
                            service,
                            hub,
                            conns: HashMap::new(),
                            next_token: FIRST_CONN_TOKEN,
                        }
                        .run()
                    })
                    .expect("spawn event loop thread")
            })
            .collect();
        Ok(EventLoop { threads, hub })
    }

    /// Flip the drain flag; the loops notice within one poll interval.
    pub(crate) fn drain(&self) {
        self.hub.draining.store(true, Ordering::SeqCst);
    }

    /// Drain, wake every loop so it notices at once, and join them all
    /// once they have written every response they owe.
    pub(crate) fn shutdown(&mut self) {
        self.drain();
        for peer in &self.hub.peers {
            peer.waker.wake();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// One connection's slot in the table.
struct ConnEntry<P> {
    stream: TcpStream,
    fd: i32,
    /// Unparsed inbound bytes + the head-search resume offset.
    buf: Vec<u8>,
    scan: usize,
    /// Ordered outbound bytes; `out_pos` is the flush frontier.
    out: Vec<u8>,
    out_pos: usize,
    /// The protocol's per-connection state.
    state: ConnState<P>,
    close_after_flush: bool,
    /// A protocol-error response (400/408/413) waiting behind the
    /// requests parsed before it, so ordering holds even on errors.
    fatal: Option<Vec<u8>>,
    /// Peer half-closed its write side; serve what's queued, then close.
    read_closed: bool,
    want_read: bool,
    want_write: bool,
    /// When the currently half-received request started arriving
    /// (slow-loris bound).
    partial_since: Option<Instant>,
    /// Last time the connection did anything (accepted, bytes read, a
    /// response completed) — the idle keep-alive eviction clock.
    last_activity: Instant,
}

struct Loop<S: Service> {
    /// This loop's index in `hub.peers`.
    id: usize,
    poller: sys::Poller,
    /// False while listener interest is dropped after a failed accept.
    listening: bool,
    service: Arc<S>,
    hub: Arc<Hub>,
    conns: HashMap<u64, ConnEntry<S::Prepared>>,
    next_token: u64,
}

impl<S: Service> Loop<S> {
    fn run(mut self) {
        let mut events: Vec<sys::Event> = Vec::new();
        let mut drain_started: Option<Instant> = None;
        loop {
            self.poller.wait(&mut events, self.hub.config.poll_interval);
            self.arm_listener();
            self.admit_inbox();
            for ev in events.drain(..) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_ready(token, ev.readable),
                }
            }
            self.sweep_timeouts();
            if self.hub.draining() {
                let t0 = *drain_started.get_or_insert_with(Instant::now);
                self.close_idle_for_drain();
                if self.conns.is_empty() {
                    break;
                }
                if t0.elapsed() > DRAIN_DEADLINE {
                    for token in self.conns.keys().copied().collect::<Vec<_>>() {
                        self.close_now(token);
                    }
                    break;
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.hub.listener.accept() {
                Ok((stream, _)) => {
                    if self.hub.draining() {
                        continue; // reject: drop the socket immediately
                    }
                    let target = self.least_loaded();
                    self.hub.peers[target].live.fetch_add(1, Ordering::Relaxed);
                    if target == self.id {
                        self.admit(stream);
                    } else {
                        let peer = &self.hub.peers[target];
                        peer.inbox.lock().unwrap_or_else(PoisonError::into_inner).push(stream);
                        peer.waker.wake();
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                    ) => {}
                // EMFILE and friends: the connection stays in the backlog,
                // so level-triggered readiness would re-fire at once. Stop
                // listening until the next tick or until a connection here
                // closes and frees a descriptor.
                Err(_) => {
                    let _ = self.poller.deregister(raw_fd(&self.hub.listener), TOKEN_LISTENER);
                    self.listening = false;
                    break;
                }
            }
        }
    }

    fn arm_listener(&mut self) {
        if !self.listening {
            let fd = raw_fd(&self.hub.listener);
            self.listening = self.poller.register_listener(fd, TOKEN_LISTENER).is_ok();
        }
    }

    /// The loop with the fewest live connections. Ties rotate with the
    /// accept count: a connection that is about to close (a set-up or
    /// probe connection) still counts, and keeping ties on the accepting
    /// loop would then stack the next active connections onto one loop.
    fn least_loaded(&self) -> usize {
        let peers = &self.hub.peers;
        let start = self.hub.accepts.fetch_add(1, Ordering::Relaxed);
        (0..peers.len())
            .map(|k| (start + k) % peers.len())
            .min_by_key(|&i| peers[i].live.load(Ordering::Relaxed))
            .unwrap_or(self.id)
    }

    /// Admit the sockets sibling loops handed over since the last wait.
    fn admit_inbox(&mut self) {
        let handed = std::mem::take(
            &mut *self.hub.peers[self.id].inbox.lock().unwrap_or_else(PoisonError::into_inner),
        );
        for stream in handed {
            self.admit(stream);
        }
    }

    /// Register an accepted socket here and build its state. The socket
    /// is already counted in this loop's `live`.
    fn admit(&mut self, stream: TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        let fd = raw_fd(&stream);
        if self.hub.draining()
            || stream.set_nonblocking(true).is_err()
            || self.poller.register(fd, token, true, false).is_err()
        {
            self.hub.peers[self.id].live.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let _ = stream.set_nodelay(true);
        let state = ConnState::new(self.hub.register_conn(&stream), self.service.conn_options());
        self.conns.insert(
            token,
            ConnEntry {
                stream,
                fd,
                buf: Vec::new(),
                scan: 0,
                out: Vec::new(),
                out_pos: 0,
                state,
                close_after_flush: false,
                fatal: None,
                read_closed: false,
                want_read: true,
                want_write: false,
                partial_since: None,
                last_activity: Instant::now(),
            },
        );
    }

    /// Read what a readable socket holds, then pump: a readiness event of
    /// either kind may unblock parsing, execution or the flush.
    fn conn_ready(&mut self, token: u64, readable: bool) {
        let Some(entry) = self.conns.get_mut(&token) else { return };
        if readable && entry.want_read && !entry.read_closed {
            let mut chunk = [0u8; CHUNK];
            match entry.stream.read(&mut chunk) {
                Ok(0) => entry.read_closed = true,
                Ok(n) => {
                    entry.buf.extend_from_slice(&chunk[..n]);
                    entry.last_activity = Instant::now();
                }
                Err(ref e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => {
                    // Abrupt disconnect (reset mid-request): nothing can
                    // be sent back; free the slot now.
                    self.close_now(token);
                    return;
                }
            }
        }
        self.pump(token);
    }

    /// Parse what is buffered, run it inline, flush — repeating while a
    /// capped batch left complete requests behind in the buffer. Safe to
    /// call whenever a connection's inputs changed (bytes read, socket
    /// writable, timeout fired).
    fn pump(&mut self, token: u64) {
        loop {
            let batch = self.parse(token);
            let ran = self.execute(token, batch);
            self.flush(token);
            if !ran {
                break;
            }
        }
    }

    /// Parse complete requests off the buffer, up to the batch and
    /// backlog caps. A malformed or oversized request ends the batch and
    /// queues its protocol-error response instead.
    fn parse(&mut self, token: u64) -> Vec<Request> {
        let mut batch = Vec::new();
        let Some(entry) = self.conns.get_mut(&token) else { return batch };
        let mut incomplete = false;
        while entry.fatal.is_none()
            && !entry.close_after_flush
            && batch.len() < PIPELINE_MAX
            && entry.out.len() - entry.out_pos < OUT_MAX
        {
            match http::try_parse(&mut entry.buf, &mut entry.scan, self.hub.config.max_body) {
                Ok(Some(req)) => batch.push(req),
                Ok(None) => {
                    incomplete = !entry.buf.is_empty();
                    break;
                }
                Err(ParseError::Bad(message)) => {
                    let body = wire::protocol_error_body("bad_request", &message);
                    entry.fatal = Some(http::format_response(400, &body.to_string(), false));
                }
                Err(ParseError::TooLarge) => {
                    let body =
                        wire::protocol_error_body("too_large", "request exceeds size limits");
                    entry.fatal = Some(http::format_response(413, &body.to_string(), false));
                }
            }
        }
        entry.partial_since =
            if incomplete { entry.partial_since.or_else(|| Some(Instant::now())) } else { None };
        if entry.fatal.is_some() || (entry.read_closed && incomplete) {
            // A protocol error poisons the connection, and a peer that
            // quit mid-request left nothing to answer: drop what is
            // unread.
            entry.buf.clear();
            entry.scan = 0;
            entry.partial_since = None;
        }
        if batch.len() > 1 {
            self.hub.pipelined.fetch_add(batch.len() as u64 - 1, Ordering::Relaxed);
        }
        batch
    }

    /// Run a parsed batch inline, appending each response in arrival
    /// order, then emit a queued protocol-error response, which ends the
    /// connection. True if anything was appended.
    fn execute(&mut self, token: u64, batch: Vec<Request>) -> bool {
        let Some(entry) = self.conns.get_mut(&token) else { return false };
        let mut ran = false;
        for req in batch {
            self.hub.requests.fetch_add(1, Ordering::Relaxed);
            entry.state.stats.requests.fetch_add(1, Ordering::Relaxed);
            let (status, body) = handler::route(&*self.service, &self.hub, &mut entry.state, &req);
            // Keep-alive folds the client's wish and the drain state.
            let keep = !req.close && !self.hub.draining();
            entry.out.extend_from_slice(&http::format_response(status, &body.to_string(), keep));
            entry.last_activity = Instant::now();
            ran = true;
            if !keep {
                entry.close_after_flush = true;
                return ran;
            }
        }
        if let Some(bytes) = entry.fatal.take() {
            entry.out.extend_from_slice(&bytes);
            entry.close_after_flush = true;
            ran = true;
        }
        ran
    }

    /// 408 any connection whose half-received request outlived the
    /// request timeout — a byte-trickling client costs a table entry,
    /// never a loop, and not forever.
    fn sweep_timeouts(&mut self) {
        let timeout = self.hub.config.request_timeout;
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, e)| e.partial_since.is_some_and(|t| t.elapsed() > timeout))
            .map(|(t, _)| *t)
            .collect();
        for token in expired {
            if let Some(entry) = self.conns.get_mut(&token) {
                let body = wire::protocol_error_body("timeout", "request did not complete");
                entry.fatal = Some(http::format_response(408, &body.to_string(), false));
                entry.partial_since = None;
            }
            self.pump(token);
        }
        self.sweep_idle();
    }

    /// Close keep-alive connections that have been completely idle past
    /// `max_idle`: no half-received request (that is the slow-loris
    /// sweep's job), output fully flushed. Rides the same poll-interval
    /// cadence as the timeout sweep.
    fn sweep_idle(&mut self) {
        let Some(max_idle) = self.hub.config.max_idle else { return };
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, e)| {
                e.out_pos >= e.out.len()
                    && e.fatal.is_none()
                    && e.partial_since.is_none()
                    && e.last_activity.elapsed() > max_idle
            })
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            self.close_now(token);
        }
    }

    /// During drain, close connections that owe no response. Everything
    /// else finishes first.
    fn close_idle_for_drain(&mut self) {
        let idle: Vec<u64> = self
            .conns
            .iter()
            // A half-received request (non-empty `buf`) does not make a
            // connection busy: drain never waits on bytes that may never
            // arrive, only on responses already owed.
            .filter(|(_, e)| e.out_pos >= e.out.len() && e.fatal.is_none())
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            self.close_now(token);
        }
    }

    fn flush(&mut self, token: u64) {
        let mut close = false;
        {
            let Some(entry) = self.conns.get_mut(&token) else { return };
            loop {
                if entry.out_pos >= entry.out.len() {
                    entry.out.clear();
                    entry.out_pos = 0;
                    break;
                }
                match entry.stream.write(&entry.out[entry.out_pos..]) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => entry.out_pos += n,
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                        // Reclaim the flushed prefix so a slow reader's
                        // backlog doesn't grow monotonically.
                        if entry.out_pos > 0 {
                            entry.out.drain(..entry.out_pos);
                            entry.out_pos = 0;
                        }
                        break;
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
            if entry.out.is_empty()
                && (entry.close_after_flush || (entry.read_closed && entry.fatal.is_none()))
            {
                close = true;
            }
        }
        if close {
            self.close_now(token);
        } else {
            self.update_interest(token);
        }
    }

    fn update_interest(&mut self, token: u64) {
        let Some(entry) = self.conns.get_mut(&token) else { return };
        let backlog = entry.out.len() - entry.out_pos;
        let read = !entry.read_closed
            && entry.fatal.is_none()
            && !entry.close_after_flush
            && backlog < OUT_MAX;
        let write = backlog > 0;
        if read != entry.want_read || write != entry.want_write {
            entry.want_read = read;
            entry.want_write = write;
            let _ = self.poller.modify(entry.fd, token, read, write);
        }
    }

    fn close_now(&mut self, token: u64) {
        if let Some(entry) = self.conns.remove(&token) {
            let _ = self.poller.deregister(entry.fd, token);
            self.hub
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&entry.state.stats.id);
            self.hub.peers[self.id].live.fetch_sub(1, Ordering::Relaxed);
            // A descriptor is about to come free: resume accepting if a
            // failed accept paused it.
            self.arm_listener();
        }
    }
}

#[cfg(unix)]
fn raw_fd<T: std::os::unix::io::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}
#[cfg(not(unix))]
fn raw_fd<T>(_t: &T) -> i32 {
    -1
}

/// Readiness backends. Linux gets the real thing — raw `epoll(7)` plus a
/// self-pipe waker, std-only via `extern "C"` like `server::signal`. Other platforms get a tick poller: every registered
/// connection is reported maybe-ready each short tick and the
/// nonblocking reads/writes discover the truth — degraded (O(conns) per
/// tick) but correct, and it keeps the crate building everywhere.
#[cfg(target_os = "linux")]
mod sys {
    use std::io;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLEXCLUSIVE: u32 = 1 << 28;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0x80000;
    const O_NONBLOCK: i32 = 0x800;
    const O_CLOEXEC: i32 = 0x80000;

    /// Matches the kernel ABI: packed on x86_64 only.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn pipe2(fds: *mut i32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    /// The waker's pipe read end lives under this reserved token; the
    /// poller drains it internally and never reports it.
    const WAKE_TOKEN: u64 = u64::MAX;

    pub(super) struct Event {
        pub(super) token: u64,
        pub(super) readable: bool,
    }

    pub(super) struct Poller {
        ep: i32,
        wake_rx: i32,
    }

    /// Write end of the self-pipe; one byte makes `wait` return early.
    /// Sibling loops wake it to hand over a socket, the owner to drain.
    pub(super) struct Waker(i32);

    impl Drop for Waker {
        fn drop(&mut self) {
            unsafe { close(self.0) };
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.wake_rx);
                close(self.ep);
            }
        }
    }

    fn interest(read: bool, write: bool) -> u32 {
        let mut events = 0;
        if read {
            events |= EPOLLIN;
        }
        if write {
            events |= EPOLLOUT;
        }
        events
    }

    impl Poller {
        pub(super) fn new() -> io::Result<(Poller, Waker)> {
            let ep = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if ep < 0 {
                return Err(io::Error::last_os_error());
            }
            let mut fds = [0i32; 2];
            if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } < 0 {
                let e = io::Error::last_os_error();
                unsafe { close(ep) };
                return Err(e);
            }
            let poller = Poller { ep, wake_rx: fds[0] };
            let waker = Waker(fds[1]);
            poller.ctl(EPOLL_CTL_ADD, fds[0], WAKE_TOKEN, EPOLLIN)?;
            Ok((poller, waker))
        }

        fn ctl(&self, op: i32, fd: i32, token: u64, events: u32) -> io::Result<()> {
            let mut ev = EpollEvent { events, data: token };
            if unsafe { epoll_ctl(self.ep, op, fd, &mut ev) } < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        pub(super) fn register(&mut self, fd: i32, token: u64, r: bool, w: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest(r, w))
        }

        pub(super) fn modify(&mut self, fd: i32, token: u64, r: bool, w: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest(r, w))
        }

        /// Watch a listener shared with sibling loops: `EPOLLEXCLUSIVE`
        /// wakes one waiting loop per connection instead of all of them
        /// (kernels before 4.5 reject the flag and get a plain watch).
        pub(super) fn register_listener(&mut self, fd: i32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, EPOLLIN | EPOLLEXCLUSIVE)
                .or_else(|_| self.ctl(EPOLL_CTL_ADD, fd, token, EPOLLIN))
        }

        pub(super) fn deregister(&mut self, fd: i32, _token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        pub(super) fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) {
            out.clear();
            let mut evs = [EpollEvent { events: 0, data: 0 }; 256];
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n = unsafe { epoll_wait(self.ep, evs.as_mut_ptr(), evs.len() as i32, ms) };
            if n <= 0 {
                return; // timeout, or EINTR — the caller just loops
            }
            for ev in evs.iter().take(n as usize) {
                // By-value copies: fields of a packed struct must not be
                // borrowed.
                let (events, token) = (ev.events, ev.data);
                if token == WAKE_TOKEN {
                    let mut sink = [0u8; 64];
                    while unsafe { read(self.wake_rx, sink.as_mut_ptr(), sink.len()) } > 0 {}
                    continue;
                }
                // ERR/HUP surface as readability so the nonblocking read
                // discovers the condition and closes.
                out.push(Event { token, readable: events & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0 });
            }
        }
    }

    impl Waker {
        pub(super) fn wake(&self) {
            let byte = 1u8;
            // A full pipe is fine: the loop is already awake-pending.
            unsafe { write(self.0, &byte, 1) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use std::collections::HashMap;
    use std::io;
    use std::time::Duration;

    pub(super) struct Event {
        pub(super) token: u64,
        pub(super) readable: bool,
    }

    pub(super) struct Poller {
        interests: HashMap<u64, (bool, bool)>,
    }

    /// No self-pipe on the tick poller: the short tick bounds hand-off
    /// and drain latency instead.
    pub(super) struct Waker;

    impl Poller {
        pub(super) fn new() -> io::Result<(Poller, Waker)> {
            Ok((Poller { interests: HashMap::new() }, Waker))
        }

        pub(super) fn register(
            &mut self,
            _fd: i32,
            token: u64,
            r: bool,
            w: bool,
        ) -> io::Result<()> {
            self.interests.insert(token, (r, w));
            Ok(())
        }

        pub(super) fn modify(&mut self, _fd: i32, token: u64, r: bool, w: bool) -> io::Result<()> {
            self.interests.insert(token, (r, w));
            Ok(())
        }

        pub(super) fn register_listener(&mut self, fd: i32, token: u64) -> io::Result<()> {
            self.register(fd, token, true, false)
        }

        pub(super) fn deregister(&mut self, _fd: i32, token: u64) -> io::Result<()> {
            self.interests.remove(&token);
            Ok(())
        }

        pub(super) fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) {
            out.clear();
            std::thread::sleep(timeout.min(Duration::from_millis(5)));
            for (&token, &(r, w)) in &self.interests {
                if r || w {
                    out.push(Event { token, readable: r });
                }
            }
        }
    }

    impl Waker {
        pub(super) fn wake(&self) {}
    }
}
