//! CPU steal accounting. On a virtual machine the host can deschedule the
//! guest's CPUs for seconds at a time; `/proc/stat` counts that time as
//! `steal`. The sampler records it during a timed phase so the report can
//! leave out windows in which the machine, not the program, was slow.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often `/proc/stat` is read.
const PERIOD: Duration = Duration::from_millis(50);

/// `(seconds since start, steal ticks, all ticks)` readings.
pub struct StealLog {
    points: Vec<(f64, u64, u64)>,
}

impl StealLog {
    /// Share of CPU time stolen by the host between `a` and `b` seconds
    /// (0 when `/proc/stat` is unavailable).
    pub fn share(&self, a: f64, b: f64) -> f64 {
        let at = |t: f64| {
            self.points
                .iter()
                .min_by(|x, y| (x.0 - t).abs().total_cmp(&(y.0 - t).abs()))
                .map(|&(_, steal, total)| (steal, total))
        };
        match (at(a), at(b)) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

pub struct StealSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(f64, u64, u64)>>,
}

impl StealSampler {
    /// Start sampling; time 0 is now.
    pub fn start() -> StealSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let start = Instant::now();
        let handle = std::thread::spawn(move || {
            let mut points = Vec::new();
            loop {
                if let Some((steal, total)) = read_proc_stat() {
                    points.push((start.elapsed().as_secs_f64(), steal, total));
                }
                if flag.load(Ordering::Relaxed) {
                    return points;
                }
                std::thread::sleep(PERIOD);
            }
        });
        StealSampler { stop, handle }
    }

    pub fn finish(self) -> StealLog {
        self.stop.store(true, Ordering::Relaxed);
        StealLog { points: self.handle.join().expect("steal sampler panicked") }
    }
}

/// `(steal, total)` ticks summed over all CPUs.
fn read_proc_stat() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}
