//! The closed-loop load generator: one keep-alive connection per thread,
//! the next request sent as soon as the previous response has arrived,
//! every answer checked against the oracle.

use crate::oracle::Oracle;
use crate::workload::{Op, OpKind, Workload};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One raw HTTP/1.1 keep-alive connection. Requests arrive pre-encoded,
/// so the client adds no encoding work to the measured latency.
pub struct Sock {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` belonging to the previous response.
    consumed: usize,
}

impl Sock {
    pub fn connect(addr: &str) -> io::Result<Sock> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Sock { stream, buf: Vec::with_capacity(64 * 1024), consumed: 0 })
    }

    /// Send one request and read its whole response: `(status, body)`.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, &str)> {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.stream.write_all(request)?;
        let mut chunk = [0u8; 64 * 1024];
        let mut scanned = 0;
        loop {
            if let Some(pos) = find_head_end(&self.buf, scanned) {
                let (status, length) = parse_head(&self.buf[..pos])?;
                let total = pos + 4 + length;
                while self.buf.len() < total {
                    self.fill(&mut chunk)?;
                }
                self.consumed = total;
                let body = std::str::from_utf8(&self.buf[pos + 4..total])
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
                return Ok((status, body));
            }
            scanned = self.buf.len().saturating_sub(3);
            self.fill(&mut chunk)?;
        }
    }

    fn fill(&mut self, chunk: &mut [u8]) -> io::Result<()> {
        match self.stream.read(chunk)? {
            0 => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    buf[from.min(buf.len())..].windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + from)
}

fn parse_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let head = std::str::from_utf8(head).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = 0;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    Ok((status, length))
}

/// The `serialized` answer of a successful query response.
fn served_answer(status: u16, body: &str) -> Result<String, String> {
    let json = mhx_json::parse(body).map_err(|e| format!("unparseable response: {e}"))?;
    if status != 200 || json.get("ok").and_then(mhx_json::Json::as_bool) != Some(true) {
        return Err(format!("status {status}: {body}"));
    }
    json.get("serialized")
        .and_then(mhx_json::Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "response has no `serialized`".to_string())
}

/// Per-document upload sequence numbers. Version `seq % versions` is the
/// content; `started` moves before an upload is sent and `done` after it
/// is acknowledged, so a query may match any version in between.
pub struct Versions {
    started: Vec<AtomicU64>,
    done: Vec<AtomicU64>,
    counts: Vec<u64>,
}

impl Versions {
    pub fn new(w: &Workload) -> Versions {
        Versions {
            started: w.docs.iter().map(|_| AtomicU64::new(0)).collect(),
            done: w.docs.iter().map(|_| AtomicU64::new(0)).collect(),
            counts: w.docs.iter().map(|d| d.versions.len() as u64).collect(),
        }
    }

    /// The version index currently committed for `doc`.
    pub fn committed(&self, doc: usize) -> usize {
        (self.done[doc].load(Ordering::SeqCst) % self.counts[doc]) as usize
    }
}

/// A load connection: its socket(s), the position in its op stream, and
/// how to reach it again after a transport error.
pub struct Conn {
    pub index: usize,
    addrs: Vec<String>,
    socks: Vec<Sock>,
    /// Document → socket index (several only when talking to shards
    /// directly).
    route: Vec<usize>,
    /// Position in the op stream (carried from one deployment to the next).
    pub next: usize,
}

impl Conn {
    /// Connect to every address and prepare the workload's handles on
    /// each socket.
    pub fn open(
        w: &Workload,
        index: usize,
        addrs: Vec<String>,
        route: Vec<usize>,
    ) -> Result<Conn, String> {
        let mut conn = Conn { index, addrs, socks: Vec::new(), route, next: 0 };
        conn.reconnect(w)?;
        Ok(conn)
    }

    fn reconnect(&mut self, w: &Workload) -> Result<(), String> {
        self.socks.clear();
        for addr in &self.addrs {
            let mut sock = Sock::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            for (handle, &q) in w.prepared.iter().enumerate() {
                let (status, body) = sock
                    .exchange(&w.prepare_request(q))
                    .map_err(|e| format!("prepare on {addr}: {e}"))?;
                let json = mhx_json::parse(body).map_err(|e| format!("prepare response: {e}"))?;
                if status != 200
                    || json.get("handle").and_then(|h| h.as_u64()) != Some(handle as u64)
                {
                    return Err(format!("prepare on {addr} answered {status}: {body}"));
                }
            }
            self.socks.push(sock);
        }
        Ok(())
    }

    /// Send a raw request on the socket serving `doc`.
    pub fn send(&mut self, doc: usize, request: &[u8]) -> io::Result<(u16, &str)> {
        let s = self.route[doc];
        self.socks[s].exchange(request)
    }
}

/// What kind of request a latency sample timed.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Sent {
    Adhoc,
    Prepared,
    Upload,
}

/// One completed operation: when it completed (seconds into the phase),
/// its latency, and its kind.
pub struct Sample {
    pub at_s: f64,
    pub ns: f64,
    pub sent: Sent,
}

/// Latency samples and failure counts of one phase.
#[derive(Default)]
pub struct Tally {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub transport_errors: u64,
    pub non_2xx: u64,
    pub wrong_answers: u64,
    pub first_failures: Vec<String>,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.transport_errors += other.transport_errors;
        self.non_2xx += other.non_2xx;
        self.wrong_answers += other.wrong_answers;
        for f in other.first_failures {
            self.note(f);
        }
    }

    pub fn failed(&self) -> u64 {
        self.transport_errors + self.non_2xx + self.wrong_answers
    }

    /// Latencies (ns) of the samples whose kind passes `keep`.
    pub fn latencies(&self, keep: impl Fn(Sent) -> bool) -> Vec<f64> {
        self.samples.iter().filter(|s| keep(s.sent)).map(|s| s.ns).collect()
    }

    pub fn count(&self, keep: impl Fn(Sent) -> bool) -> usize {
        self.samples.iter().filter(|s| keep(s.sent)).count()
    }

    fn note(&mut self, failure: String) {
        if self.first_failures.len() < 5 {
            self.first_failures.push(failure);
        }
    }
}

/// Outcome of checking one answer.
pub enum Verdict {
    Correct,
    Wrong(String),
    Refused(String),
}

/// Check a served query answer against every version the document could
/// have held while the request was in flight.
pub fn check_query(
    oracle: &Oracle,
    op: &Op,
    versions: (u64, u64),
    counts: u64,
    status: u16,
    body: &str,
) -> Verdict {
    let got = match served_answer(status, body) {
        Ok(got) => got,
        Err(e) => return Verdict::Refused(e),
    };
    let (lo, hi) = versions;
    let span = (hi.saturating_sub(lo) + 1).min(counts);
    for s in lo..lo + span {
        if oracle.expected(op.doc, (s % counts) as u8, op.query) == got {
            return Verdict::Correct;
        }
    }
    Verdict::Wrong(format!(
        "d{} query #{}: got `{}`, expected `{}`",
        op.doc,
        op.query,
        clip(&got),
        clip(oracle.expected(op.doc, (lo % counts) as u8, op.query))
    ))
}

fn clip(s: &str) -> &str {
    match s.char_indices().nth(80) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// Run `conn`'s op stream, closed loop, from `start` until `until`.
/// Latencies are recorded only when `record` is set (warm-up runs the
/// same loop).
fn run_phase(
    w: &Workload,
    oracle: &Oracle,
    versions: &Versions,
    conn: &mut Conn,
    (start, until): (Instant, Instant),
    record: bool,
) -> Tally {
    let mut tally = Tally::default();
    let ops = &w.streams[conn.index];
    while Instant::now() < until {
        let op = &ops[conn.next % ops.len()];
        conn.next += 1;
        tally.attempted += 1;
        let doc = op.doc as usize;
        let result = match op.kind {
            OpKind::Upload => {
                // Only this connection uploads `doc`, so `done` is ours.
                let seq = versions.done[doc].load(Ordering::SeqCst) + 1;
                let version = &w.docs[doc].versions[(seq % versions.counts[doc]) as usize];
                versions.started[doc].store(seq, Ordering::SeqCst);
                let t0 = Instant::now();
                match conn.send(doc, &version.http) {
                    Ok((status, body)) => {
                        let ns = t0.elapsed().as_nanos() as f64;
                        let ok = mhx_json::parse(body)
                            .ok()
                            .and_then(|j| j.get("ok").and_then(mhx_json::Json::as_bool));
                        if status == 200 && ok == Some(true) {
                            versions.done[doc].store(seq, Ordering::SeqCst);
                            if record {
                                tally.samples.push(Sample {
                                    at_s: start.elapsed().as_secs_f64(),
                                    ns,
                                    sent: Sent::Upload,
                                });
                            }
                            Ok(())
                        } else {
                            Err((false, format!("upload d{doc}: status {status}: {body}")))
                        }
                    }
                    Err(e) => Err((true, format!("upload d{doc}: {e}"))),
                }
            }
            OpKind::Adhoc | OpKind::Prepared(_) => {
                let lo = versions.done[doc].load(Ordering::SeqCst);
                let t0 = Instant::now();
                match conn.send(doc, &op.http) {
                    Ok((status, body)) => {
                        let ns = t0.elapsed().as_nanos() as f64;
                        let hi = versions.started[doc].load(Ordering::SeqCst);
                        match check_query(oracle, op, (lo, hi), versions.counts[doc], status, body)
                        {
                            Verdict::Correct => {
                                if record {
                                    let sent = match op.kind {
                                        OpKind::Prepared(_) => Sent::Prepared,
                                        _ => Sent::Adhoc,
                                    };
                                    let at_s = start.elapsed().as_secs_f64();
                                    tally.samples.push(Sample { at_s, ns, sent });
                                }
                                Ok(())
                            }
                            Verdict::Wrong(m) => {
                                tally.wrong_answers += 1;
                                tally.note(m);
                                continue;
                            }
                            Verdict::Refused(m) => Err((false, m)),
                        }
                    }
                    Err(e) => Err((true, format!("query d{doc}: {e}"))),
                }
            }
        };
        if let Err((transport, message)) = result {
            tally.note(message);
            if transport {
                tally.transport_errors += 1;
                if let Err(e) = conn.reconnect(w) {
                    tally.note(format!("reconnect failed: {e}"));
                    break;
                }
            } else {
                tally.non_2xx += 1;
            }
        }
    }
    tally
}

/// Run every connection on its own thread for `length`.
pub fn run_all(
    w: &Workload,
    oracle: &Oracle,
    versions: &Versions,
    conns: &mut [Conn],
    length: Duration,
    record: bool,
) -> Tally {
    let start = Instant::now();
    let phase = (start, start + length);
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| s.spawn(move || run_phase(w, oracle, versions, conn, phase, record)))
            .collect();
        let mut total = Tally::default();
        for h in handles {
            total.absorb(h.join().expect("load thread panicked"));
        }
        total
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;

    fn served(serialized: &str) -> String {
        let mut out = String::new();
        mhx_json::Json::Obj(vec![
            ("ok".into(), mhx_json::Json::Bool(true)),
            ("serialized".into(), mhx_json::Json::Str(serialized.into())),
        ])
        .write_into(&mut out);
        out
    }

    #[test]
    fn a_corrupted_expectation_is_caught() {
        let w = Workload::generate(Kind::HotReads, 5);
        let oracle = Oracle::build(&w).expect("oracle");
        let op = &w.streams[0][0];
        let body = served(oracle.expected(op.doc, 0, op.query));
        assert!(matches!(check_query(&oracle, op, (0, 0), 1, 200, &body), Verdict::Correct));
        let mut corrupted = oracle.clone();
        corrupted.corrupt(op.doc, 0, op.query);
        assert!(matches!(check_query(&corrupted, op, (0, 0), 1, 200, &body), Verdict::Wrong(_)));
        assert!(matches!(check_query(&oracle, op, (0, 0), 1, 500, &body), Verdict::Refused(_)));
    }

    #[test]
    fn a_query_racing_an_upload_may_match_either_version() {
        let w = Workload::generate(Kind::UploadChurn, 5);
        let oracle = Oracle::build(&w).expect("oracle");
        let op = w.streams[0].iter().find(|op| op.kind != OpKind::Upload).expect("a query");
        let new = served(oracle.expected(op.doc, 1, op.query));
        let old = served(oracle.expected(op.doc, 0, op.query));
        // Version 1 was being uploaded while the query was in flight.
        assert!(matches!(check_query(&oracle, op, (0, 1), 3, 200, &new), Verdict::Correct));
        assert!(matches!(check_query(&oracle, op, (0, 1), 3, 200, &old), Verdict::Correct));
        // Once version 1 is committed, only it (or later) is acceptable.
        if oracle.expected(op.doc, 0, op.query) != oracle.expected(op.doc, 1, op.query) {
            assert!(matches!(check_query(&oracle, op, (1, 1), 3, 200, &old), Verdict::Wrong(_)));
        }
    }
}
