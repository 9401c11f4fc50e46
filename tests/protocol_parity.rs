//! Protocol parity: a client cannot tell `mhxr` from `mhxd`. One table of
//! raw requests runs against an `mhxd` and against an `mhxr` in front of
//! an identically loaded `mhxd`, and every answer must be the same
//! `(status, body)`, byte for byte. Only `/stats` differs by design (the
//! router reports its own sections), so it is not in the table.

use multihier_xquery::prelude::*;
use multihier_xquery::server::{BackendPool, Router, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn config() -> ServerConfig {
    ServerConfig { workers: 2, poll_interval: Duration::from_millis(5), ..ServerConfig::default() }
}

/// Two documents, so a request that names none and pins none is
/// ambiguous.
fn boot() -> Server {
    let catalog = Arc::new(Catalog::new());
    for (id, words) in [("a", "<r><w>a</w> <w>b</w></r>"), ("b", "<r><w>c</w></r>")] {
        catalog.insert(id, GoddagBuilder::new().hierarchy("w", words).build().unwrap());
    }
    Server::bind(catalog, "127.0.0.1:0", config()).expect("bind ephemeral port")
}

/// A raw keep-alive connection: sends exact bytes, reads
/// `Content-Length`-framed responses.
struct RawConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        RawConn { stream, buf: Vec::new() }
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes()).expect("send");
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(he) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.buf[..he]).to_string();
                let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok());
                let len = head.lines().find_map(|l| {
                    l.to_ascii_lowercase()
                        .strip_prefix("content-length:")
                        .and_then(|v| v.trim().parse::<usize>().ok())
                });
                let (status, len) = (status.expect("status"), len.expect("Content-Length"));
                if self.buf.len() >= he + 4 + len {
                    let body = String::from_utf8_lossy(&self.buf[he + 4..he + 4 + len]).to_string();
                    self.buf.drain(..he + 4 + len);
                    return (status, body);
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("peer closed before answering {method} {path}"),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("read: {e}"),
            }
        }
    }
}

/// One table row: a label and the requests it sends, in order, on one
/// fresh connection.
type Row = (&'static str, Vec<(&'static str, &'static str, String)>);

fn post(path: &'static str, body: &str) -> (&'static str, &'static str, String) {
    ("POST", path, body.to_string())
}

fn table() -> Vec<Row> {
    let count = r#"{"query":"count(//w)"}"#;
    let prepare = r#"{"lang":"xpath","query":"count(//w)"}"#;
    let malformed = r#"{"hierarchies":[{"name":"h","xml":"<r><b></r>"}]}"#;
    vec![
        ("pin", vec![post("/query", r#"{"doc":"a","query":"count(//w)"}"#), post("/query", count)]),
        (
            "an unknown document does not move the pin",
            vec![
                post("/query", r#"{"doc":"a","query":"count(//w)"}"#),
                post("/query", r#"{"doc":"nope","query":"1"}"#),
                post("/query", count),
            ],
        ),
        ("no_document", vec![post("/query", count)]),
        ("unknown document", vec![post("/query", r#"{"doc":"nope","query":"1"}"#)]),
        ("healthz", vec![("GET", "/healthz", String::new())]),
        (
            "not_found",
            vec![("GET", "/nowhere", String::new()), ("PUT", "/documents/", "{}".into())],
        ),
        (
            "method_not_allowed",
            vec![
                ("GET", "/query", String::new()),
                ("POST", "/healthz", String::new()),
                ("POST", "/documents", String::new()),
                ("DELETE", "/documents/a", String::new()),
                ("GET", "/shutdown", String::new()),
            ],
        ),
        (
            "bad_json",
            vec![
                post("/query", "{"),
                post("/query", "[1]"),
                post("/query", &"[".repeat(200_000)),
                post("/execute", "nope"),
                ("PUT", "/documents/x", "{".into()),
            ],
        ),
        (
            "field validation",
            vec![
                post("/query", r#"{"doc":"a"}"#),
                post("/query", r#"{"doc":"a","query":"1","lang":"sql"}"#),
                post("/query", r#"{"doc":"a","query":"1","explain":"yes"}"#),
                post("/query", r#"{"doc":"a","query":"1","options":{"optimise":true}}"#),
                post("/query", r#"{"doc":"a","query":"1","options":[1]}"#),
                post("/query", r#"{"doc":1,"query":"1"}"#),
                post("/query", r#"{"doc":"a","query":"for $x in"}"#),
                post("/prepare", r#"{"lang":"xpath"}"#),
            ],
        ),
        (
            "prepare and execute",
            vec![
                post("/prepare", prepare),
                post("/execute", r#"{"handle":0,"doc":"a"}"#),
                post("/execute", r#"{"handle":0}"#),
                post("/execute", r#"{"handle":0,"doc":"b","options":{"optimize":false}}"#),
                post("/execute", r#"{"handle":0,"doc":"nope"}"#),
                post("/execute", r#"{"handle":1}"#),
                post("/execute", r#"{"doc":"a"}"#),
                post("/prepare", r#"{"lang":"xpath","query":"/descendant::"}"#),
            ],
        ),
        ("too_many_prepared", (0..257).map(|_| post("/prepare", prepare)).collect()),
        (
            "malformed upload",
            vec![
                ("PUT", "/documents/bad", malformed.into()),
                ("PUT", "/documents/bad", r#"{"hierarchies":[]}"#.into()),
                ("PUT", "/documents/bad", r#"{"hierarchies":[{"name":"h"}]}"#.into()),
                ("PUT", "/documents/bad", "{}".into()),
            ],
        ),
        ("documents", vec![("GET", "/documents", String::new())]),
    ]
}

#[test]
fn mhxr_answers_every_request_exactly_like_mhxd() {
    let direct = boot();
    let shard = boot();
    let pool = Arc::new(BackendPool::new(vec![shard.addr().to_string()], 1));
    let router = Router::bind(pool, "127.0.0.1:0", config()).expect("bind router");

    let mut mismatches = Vec::new();
    for (label, requests) in table() {
        let mut to_mhxd = RawConn::connect(direct.addr());
        let mut to_mhxr = RawConn::connect(router.addr());
        for (k, (method, path, body)) in requests.iter().enumerate() {
            let expected = to_mhxd.exchange(method, path, body);
            let got = to_mhxr.exchange(method, path, body);
            if got != expected {
                mismatches.push(format!(
                    "[{label}] request {k} ({method} {path}): mhxd {expected:?}, mhxr {got:?}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{} mismatches:\n{}", mismatches.len(), mismatches.join("\n"));

    router.shutdown();
    assert!(direct.shutdown());
    assert!(shard.shutdown());
}
