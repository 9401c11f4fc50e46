//! The daemons under test, as child processes: spawn, read the bound
//! address from the startup line, scrape `/stats`, read peak RSS, and
//! stop with a graceful drain whose clean exit is checked.

use mhx_json::Json;
use multihier_xquery::server::client::Client;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub struct Daemon {
    name: String,
    child: Option<Child>,
    pub addr: String,
    stderr: Option<JoinHandle<String>>,
}

impl Daemon {
    /// Start `bin` with `args` and wait for its "… on http://ADDR …"
    /// startup line.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let name = bin.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut seen = String::new();
        let addr = loop {
            let mut line = String::new();
            let n = stderr.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{name} exited before serving: {seen}"));
            }
            if let Some(rest) = line.split("http://").nth(1) {
                break rest.split_whitespace().next().unwrap_or("").to_string();
            }
            seen.push_str(&line);
        };
        // Keep draining stderr so the daemon can never block on it.
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            rest
        });
        Ok(Daemon { name, child: Some(child), addr, stderr: Some(stderr) })
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map(Child::id).unwrap_or(0)
    }

    /// Peak resident set (`VmHWM`) in bytes.
    pub fn peak_rss_bytes(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("{}: /proc status: {e}", self.name))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map(|kb| kb * 1024)
            .ok_or_else(|| format!("{}: no VmHWM", self.name))
    }

    /// `POST /shutdown`, then wait for a clean (status 0) exit.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown_server().map_err(|e| e.to_string()));
        let mut child = self.child.take().expect("stop runs once");
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
            }
        };
        let log = self.stderr.take().and_then(|h| h.join().ok()).unwrap_or_default();
        match (asked, status) {
            (Ok(()), Some(s)) if s.success() => Ok(()),
            (asked, status) => Err(format!(
                "{} did not stop cleanly (shutdown request: {asked:?}, exit: {status:?}): {log}",
                self.name
            )),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// Numeric `/stats` counters flattened to dotted keys (`cache.hits`,
/// `store.loads`, `router.failovers`…). A router's per-shard sections are
/// summed under the same keys a single daemon reports.
pub fn scrape(addr: &str) -> Result<BTreeMap<String, f64>, String> {
    let json = Client::connect(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.stats().map_err(|e| e.to_string()))
        .map_err(|e| format!("/stats on {addr}: {e}"))?;
    let mut out = BTreeMap::new();
    flatten("", &json, &mut out);
    if let Some(shards) = json.get("shards").and_then(Json::as_arr) {
        for shard in shards {
            let stats = shard.get("stats").ok_or_else(|| format!("shard unreachable: {shard}"))?;
            flatten("", stats, &mut out);
        }
    }
    Ok(out)
}

fn flatten(prefix: &str, json: &Json, out: &mut BTreeMap<String, f64>) {
    match json {
        Json::Num(n) => *out.entry(prefix.to_string()).or_insert(0.0) += n,
        Json::Obj(fields) => {
            for (k, v) in fields {
                let key = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                flatten(&key, v, out);
            }
        }
        // Per-session rows, backend health and shard lists are not counters.
        _ => {}
    }
}

/// `after − before` for every counter.
pub fn delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    after.iter().map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0))).collect()
}
