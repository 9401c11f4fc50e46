//! Protocol torture tests for the evented front end: raw TCP clients
//! that split, trickle, pipeline, oversize, and abandon requests in
//! every way the incremental parser and connection table must survive.
//! The well-behaved-client paths live in `server_api.rs`; this suite is
//! the adversarial complement.

use mhx_json::Json;
use multihier_xquery::prelude::*;
use multihier_xquery::server::client::Client;
use multihier_xquery::server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

fn boot(config: ServerConfig) -> Server {
    let catalog = Arc::new(Catalog::new());
    catalog.insert(
        "ms",
        GoddagBuilder::new().hierarchy("w", "<r><w>a</w> <w>b</w> <w>c</w></r>").build().unwrap(),
    );
    Server::bind(catalog, "127.0.0.1:0", config).expect("bind ephemeral port")
}

fn quick_config(workers: usize) -> ServerConfig {
    ServerConfig { workers, poll_interval: Duration::from_millis(5), ..ServerConfig::default() }
}

/// One `/query` request as raw bytes, with an arithmetic query whose
/// serialized answer identifies it (`{n}+{n}` → `2n`).
fn query_request(n: u64, close: bool) -> Vec<u8> {
    let body = format!(r#"{{"doc":"ms","query":"{n} + {n}"}}"#);
    format!(
        "POST /query HTTP/1.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if close { "close" } else { "keep-alive" },
    )
    .into_bytes()
}

/// A raw keep-alive connection that reads `Content-Length`-framed
/// responses one at a time.
struct RawConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl RawConn {
    fn connect(server: &Server) -> RawConn {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.set_nodelay(true).unwrap();
        RawConn { stream, buf: Vec::new() }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send");
    }

    /// Read exactly one response; `None` on a clean EOF before any bytes
    /// of it arrived.
    fn try_read_response(&mut self) -> Option<(u16, String)> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(he) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.buf[..he]).to_string();
                let status: u16 = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("malformed status line in {head:?}"));
                let len: usize = head
                    .lines()
                    .filter_map(|l| {
                        l.to_ascii_lowercase()
                            .strip_prefix("content-length:")
                            .and_then(|v| v.trim().parse().ok())
                    })
                    .next()
                    .expect("response has Content-Length");
                if self.buf.len() >= he + 4 + len {
                    let body = String::from_utf8_lossy(&self.buf[he + 4..he + 4 + len]).to_string();
                    self.buf.drain(..he + 4 + len);
                    return Some((status, body));
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    assert!(self.buf.is_empty(), "EOF mid-response: {:?}", self.buf);
                    return None;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("read: {e}"),
            }
        }
    }

    fn read_response(&mut self) -> (u16, String) {
        self.try_read_response().expect("peer closed before responding")
    }
}

fn serialized_of(body: &str) -> String {
    let json = mhx_json::parse(body).expect("JSON body");
    json.get("serialized").and_then(Json::as_str).unwrap_or_default().to_string()
}

#[test]
fn a_byte_at_a_time_request_parses_and_keep_alive_survives() {
    let server = boot(quick_config(2));
    let mut conn = RawConn::connect(&server);

    // Two byte-trickled requests on one connection: the parser resumes
    // its scan incrementally, and the connection stays reusable.
    for n in [3u64, 4] {
        for byte in query_request(n, false) {
            conn.send(&[byte]);
        }
        let (status, body) = conn.read_response();
        assert_eq!(status, 200, "{body}");
        assert_eq!(serialized_of(&body), (2 * n).to_string());
    }
    assert_eq!(server.stats().connections_accepted, 1);
    assert!(server.shutdown());
}

#[test]
fn a_request_split_at_every_boundary_parses_identically() {
    let server = boot(quick_config(2));
    let mut conn = RawConn::connect(&server);
    let request = query_request(5, false);

    // Force a real read boundary at every byte offset — including inside
    // the `\r\n\r\n` terminator and inside the body.
    for split in 1..request.len() {
        conn.send(&request[..split]);
        thread::sleep(Duration::from_millis(1));
        conn.send(&request[split..]);
        let (status, body) = conn.read_response();
        assert_eq!(status, 200, "split at {split}: {body}");
        assert_eq!(serialized_of(&body), "10", "split at {split}");
    }
    assert_eq!(server.stats().connections_accepted, 1, "one connection served every split");
    assert!(server.shutdown());
}

#[test]
fn a_pipelined_burst_answers_in_request_order() {
    let server = boot(quick_config(4));
    let mut conn = RawConn::connect(&server);

    // 16 requests in one TCP write; responses must come back in arrival
    // order even though 4 workers execute concurrently elsewhere.
    let burst: Vec<u8> = (1..=16u64).flat_map(|n| query_request(n, false)).collect();
    conn.send(&burst);
    for n in 1..=16u64 {
        let (status, body) = conn.read_response();
        assert_eq!(status, 200, "{body}");
        assert_eq!(serialized_of(&body), (2 * n).to_string(), "response {n} out of order");
    }
    assert!(
        server.stats().pipelined_requests > 0,
        "the burst registered as pipelining: {:?}",
        server.stats()
    );
    assert!(server.shutdown());
}

#[test]
fn connection_close_mid_pipeline_cuts_the_tail_cleanly() {
    let server = boot(quick_config(2));
    let mut conn = RawConn::connect(&server);

    // Three pipelined requests; the second says `Connection: close`.
    let mut burst = query_request(1, false);
    burst.extend(query_request(2, true));
    burst.extend(query_request(3, false));
    conn.send(&burst);

    let (status, body) = conn.read_response();
    assert_eq!(status, 200);
    assert_eq!(serialized_of(&body), "2");
    let (status, body) = conn.read_response();
    assert_eq!(status, 200);
    assert_eq!(serialized_of(&body), "4");
    // The third request is after the close: the connection ends with a
    // clean EOF, never a truncated or extra response.
    assert!(conn.try_read_response().is_none(), "clean close after the Connection: close reply");

    // And the server is still fine for new clients.
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    assert_eq!(client.xpath("ms", "count(/descendant::w)").unwrap().serialized, "3");
    assert!(server.shutdown());
}

#[test]
fn a_slow_loris_half_request_starves_nobody_and_times_out() {
    let server = boot(ServerConfig {
        workers: 2,
        poll_interval: Duration::from_millis(5),
        request_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    });

    // The loris: half a request head, then silence.
    let mut loris = RawConn::connect(&server);
    loris.send(b"POST /query HTTP/1.1\r\nContent-Le");

    // Meanwhile a well-behaved client on the same 2-worker server runs a
    // full workload unimpeded — the loris holds a table entry, never a
    // worker.
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    for _ in 0..20 {
        assert_eq!(client.xpath("ms", "count(/descendant::w)").unwrap().serialized, "3");
    }

    // The loris is eventually 408'd and disconnected, not kept forever.
    let (status, body) = loris.read_response();
    assert_eq!(status, 408, "{body}");
    assert!(body.contains("timeout"), "{body}");
    assert!(loris.try_read_response().is_none(), "connection closed after the 408");
    assert!(server.shutdown());
}

#[test]
fn an_oversized_declared_body_is_rejected_without_reading_it() {
    let server = boot(ServerConfig {
        workers: 2,
        poll_interval: Duration::from_millis(5),
        max_body: 1024,
        ..ServerConfig::default()
    });
    let mut conn = RawConn::connect(&server);

    // Declare a 10 MB body but send none of it: the 413 must arrive off
    // the head alone, not after the server slurped 10 MB.
    let t0 = Instant::now();
    conn.send(
        b"POST /query HTTP/1.1\r\nContent-Type: application/json\r\n\
          Content-Length: 10485760\r\n\r\n",
    );
    let (status, body) = conn.read_response();
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("too_large"), "{body}");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "rejected from the declared length, not by reading: {:?}",
        t0.elapsed()
    );
    assert!(conn.try_read_response().is_none(), "connection closed after the 413");
    assert!(server.shutdown());
}

#[test]
fn abrupt_mid_request_disconnects_leak_no_connections() {
    let server = boot(quick_config(2));
    assert_eq!(server.stats().active_connections, 0);

    // A mix of abandonment: half-heads, half-bodies, and one full
    // request whose client vanishes before reading the response.
    for i in 0..6 {
        let mut conn = RawConn::connect(&server);
        match i % 3 {
            0 => conn.send(b"POST /query HTTP/1.1\r\nConte"),
            1 => conn.send(&query_request(7, false)[..40]),
            _ => conn.send(&query_request(7, false)),
        }
        drop(conn); // RST/FIN mid-request
    }

    // Every accepted entry (and its session state) is reclaimed. A closed
    // client still sits in the accept backlog, so first wait for all six
    // accepts to land, then for the table to drain back to zero.
    let t0 = Instant::now();
    loop {
        let stats = server.stats();
        if stats.connections_accepted == 6 && stats.active_connections == 0 {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "connections leaked: {stats:?}");
        thread::sleep(Duration::from_millis(10));
    }

    // The /stats sessions list agrees with the counter (no ghost rows).
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let stats = client.stats().unwrap();
    let sessions = stats
        .get("server")
        .and_then(|s| s.get("sessions"))
        .and_then(Json::as_arr)
        .expect("sessions list");
    assert_eq!(sessions.len(), 1, "only the observer remains: {stats}");
    assert!(server.shutdown());
}

#[test]
fn a_deeply_nested_query_is_a_parse_error_and_the_daemon_answers_the_next_request() {
    let server = boot(quick_config(2));
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let deep = format!("{}1{}", "(".repeat(3000), ")".repeat(3000));
    for lang in ["xpath", "xquery"] {
        let body = Json::Obj(vec![
            ("doc".into(), Json::Str("ms".into())),
            ("lang".into(), Json::Str(lang.into())),
            ("query".into(), Json::Str(deep.clone())),
        ]);
        let (status, reply) = client.request("POST", "/query", Some(&body)).unwrap();
        assert_eq!(status, 400, "{lang}: {reply}");
        let kind = reply.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
        assert_eq!(kind, Some("parse"), "{lang}: {reply}");
        // The daemon survived: the next request on the same connection
        // answers normally.
        assert_eq!(client.xquery("ms", "count(//w)").unwrap().serialized, "3");
    }
    assert!(server.shutdown());
}

#[test]
fn a_deeply_nested_json_body_is_bad_json_and_the_daemon_answers_the_next_request() {
    let server = boot(quick_config(2));
    let mut conn = RawConn::connect(&server);
    // 200 KB of `[`: far under `max_body`, far over `mhx_json::MAX_DEPTH`.
    let body = "[".repeat(200_000);
    conn.send(
        format!(
            "POST /query HTTP/1.1\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    let (status, reply) = conn.read_response();
    assert_eq!(status, 400, "{reply}");
    let reply = mhx_json::parse(&reply).expect("JSON error body");
    let kind = reply.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
    assert_eq!(kind, Some("bad_json"), "{reply}");
    // The daemon survived: a new connection gets a normal answer.
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    assert_eq!(client.xquery("ms", "count(//w)").unwrap().serialized, "3");
    assert!(server.shutdown());
}

#[test]
fn a_deeply_nested_xml_upload_is_a_document_error_and_the_daemon_answers_the_next_connection() {
    let server = boot(quick_config(2));
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    // ~700 KB: far under `max_body`, far over `mhx_xml::MAX_DEPTH`.
    let depth = 100_000;
    let xml = format!("{}x{}", "<a>".repeat(depth), "</a>".repeat(depth));
    let body = Json::Obj(vec![(
        "hierarchies".into(),
        Json::Arr(vec![Json::Obj(vec![
            ("name".into(), Json::Str("h".into())),
            ("xml".into(), Json::Str(xml)),
        ])]),
    )]);
    let (status, reply) = client.request("PUT", "/documents/x", Some(&body)).unwrap();
    assert_eq!(status, 400, "{reply}");
    let kind = reply.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
    assert_eq!(kind, Some("document"), "{reply}");
    // The daemon survived: a new connection gets a normal answer, and
    // nothing was registered.
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    assert_eq!(client.xquery("ms", "count(//w)").unwrap().serialized, "3");
    assert_eq!(client.documents().unwrap(), vec!["ms".to_string()]);
    assert!(server.shutdown());
}

/// Held by the tests that time CPU-bound queries against each other, so
/// that on a small machine they do not measure one another's load.
static CPU_TIMED: Mutex<()> = Mutex::new(());

/// A 2-loop server over a document large enough that [`slow_query`]
/// costs real CPU.
fn boot_with_big_doc() -> Server {
    let xml = format!("<r>{}</r>", "<w>ab</w> ".repeat(2000));
    let catalog = Arc::new(Catalog::new());
    catalog.insert("big", GoddagBuilder::new().hierarchy("w", &xml).build().unwrap());
    Server::bind(catalog, "127.0.0.1:0", quick_config(2)).expect("bind ephemeral port")
}

/// A query whose cost grows linearly with `k` (one full predicate scan of
/// the big document per iteration); it counts to `k`.
fn slow_query(k: u64) -> Vec<u8> {
    let body = format!(
        r#"{{"doc":"big","lang":"xquery","query":"count(for $i in 1 to {k} return count(/descendant::w[string-length(string(.)) > $i mod 3]))"}}"#
    );
    format!(
        "POST /query HTTP/1.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Double `k` until one [`slow_query`] takes at least 300 ms on this
/// build and machine; returns `k` and that query's time. The calibrating
/// connection is closed (and reclaimed) before returning, so it does not
/// weigh on where the caller's next connections are placed.
fn calibrate_slow_query(server: &Server) -> (u64, Duration) {
    let mut conn = RawConn::connect(server);
    let mut k = 8;
    let took = loop {
        let t0 = Instant::now();
        conn.send(&slow_query(k));
        let (status, body) = conn.read_response();
        let took = t0.elapsed();
        assert_eq!(status, 200, "{body}");
        assert_eq!(serialized_of(&body), k.to_string());
        if took >= Duration::from_millis(300) {
            break took;
        }
        assert!(k < 1 << 20, "query never reached 300 ms");
        k *= 2;
    };
    drop(conn);
    let t0 = Instant::now();
    while server.stats().active_connections > 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "calibration connection never closed");
        thread::sleep(Duration::from_millis(5));
    }
    (k, took)
}

#[test]
fn a_long_request_delays_only_its_own_loop_and_new_connections_are_served() {
    let _cpu = CPU_TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    let server = boot_with_big_doc();
    let (k, _) = calibrate_slow_query(&server);

    // A's slow query occupies one of the two loops…
    let mut a = RawConn::connect(&server);
    a.send(&slow_query(k));
    thread::sleep(Duration::from_millis(50));

    // …while a newly opened connection B is accepted by the idle loop,
    // placed there (the busy loop holds more connections), and answered
    // without waiting for A.
    let t0 = Instant::now();
    let mut b = RawConn::connect(&server);
    b.send(b"GET /healthz HTTP/1.1\r\n\r\n");
    let (status, body) = b.read_response();
    let healthz = t0.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(healthz < Duration::from_millis(100), "/healthz waited behind A: {healthz:?}");

    let (status, body) = a.read_response();
    assert_eq!(status, 200, "{body}");
    assert_eq!(serialized_of(&body), k.to_string());
    assert!(server.shutdown());
}

#[test]
fn two_long_requests_on_fresh_connections_run_on_different_loops() {
    let _cpu = CPU_TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    let server = boot_with_big_doc();
    let (k, one) = calibrate_slow_query(&server);

    // Two fresh connections are balanced onto the two loops, so their
    // slow queries overlap instead of running back to back.
    let mut a = RawConn::connect(&server);
    let mut b = RawConn::connect(&server);
    let t0 = Instant::now();
    a.send(&slow_query(k));
    b.send(&slow_query(k));
    let finished: Vec<Duration> = thread::scope(|s| {
        let readers = [&mut a, &mut b].map(|conn| {
            s.spawn(move || {
                let (status, body) = conn.read_response();
                assert_eq!(status, 200, "{body}");
                assert_eq!(serialized_of(&body), k.to_string());
                t0.elapsed()
            })
        });
        readers.map(|r| r.join().expect("reader thread")).into()
    });
    let both = finished[0].max(finished[1]);
    let gap = both - finished[0].min(finished[1]);
    // Back to back on one loop, the second answer trails the first by a
    // whole query. Overlapping, they finish together; the total is not
    // asserted, because two vCPUs that are hyperthreads of one core run
    // two busy threads at well under twice the speed of one.
    assert!(
        gap < one / 2,
        "answers {gap:?} apart (both done after {both:?}, one query takes {one:?}): \
         the two queries ran back to back on one loop"
    );
    assert!(server.shutdown());
}

/// Out of descriptors, `accept` fails while the connection stays in the
/// backlog. The daemon must idle, not spin on the still-ready listener,
/// and serve again once descriptors come free.
#[cfg(target_os = "linux")]
#[test]
fn running_out_of_descriptors_does_not_spin_the_accept_loop() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    /// User + system CPU seconds of `pid` (`/proc/<pid>/stat` fields 14
    /// and 15, in USER_HZ = 100 ticks per second).
    fn cpu_seconds(pid: u32) -> f64 {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read stat");
        // Fields after the parenthesised command name, which may hold
        // spaces; utime and stime are the 12th and 13th of those.
        let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
        ticks as f64 / 100.0
    }

    let mut child = Command::new("sh")
        .args(["-c", "ulimit -n 24; exec \"$0\" --listen 127.0.0.1:0 --workers 2"])
        .arg(env!("CARGO_BIN_EXE_mhxd"))
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mhxd");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(stderr.read_line(&mut line).unwrap_or(0) > 0, "mhxd exited before serving");
        if let Some(ix) = line.find("http://") {
            let rest = &line[ix + "http://".len()..];
            break rest[..rest.find(char::is_whitespace).unwrap_or(rest.len())].to_string();
        }
    };
    thread::spawn(move || {
        let mut sink = String::new();
        while stderr.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });

    // 40 connections against a 24-descriptor limit: the kernel completes
    // every handshake, the daemon can accept only some of them.
    let conns: Vec<TcpStream> =
        (0..40).map(|_| TcpStream::connect(&addr).expect("connect")).collect();
    thread::sleep(Duration::from_millis(300));
    let before = cpu_seconds(child.id());
    thread::sleep(Duration::from_secs(2));
    let burned = cpu_seconds(child.id()) - before;

    // Free the descriptors; the daemon serves again.
    drop(conns);
    let t0 = Instant::now();
    let healthy = loop {
        let ok = Client::connect(&addr)
            .ok()
            .and_then(|mut c| c.request("GET", "/healthz", None).ok())
            .is_some_and(|(status, _)| status == 200);
        if ok || t0.elapsed() > Duration::from_secs(10) {
            break ok;
        }
        thread::sleep(Duration::from_millis(50));
    };
    let _ = child.kill();
    let _ = child.wait();
    assert!(burned < 0.3, "idle daemon burned {burned:.2} CPU-s in 2 s at the descriptor limit");
    assert!(healthy, "/healthz did not answer after the descriptors came free");
}
