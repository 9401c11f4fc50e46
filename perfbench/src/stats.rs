//! Order statistics for the report.

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the run was too short to measure it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100] of ascending `sorted` samples, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Plain median of a few repeated measurements (no tail requirement).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `samples` sorted ascending.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Window length: short enough that a burst of outside load spoils few
/// windows, long enough for hundreds of queries even on the slowest mix.
pub const WINDOW_S: f64 = 0.5;

/// Windows in which the host stole more than this share of the CPU time
/// are left out of the reported medians.
pub const STEAL_MAX: f64 = 0.02;

/// Throughput and query latency of one time window of a timed phase.
pub struct Window {
    /// Share of CPU time the host stole during the window.
    pub steal: f64,
    pub ops_s: f64,
    pub p50_ns: Option<f64>,
    pub p99_ns: Option<f64>,
    /// The window's query latencies (ns), ascending.
    pub latencies: Vec<f64>,
}

/// Cut a phase of `seconds` into equal time windows of about
/// [`WINDOW_S`]. `samples` are
/// `(completion time in s, latency in ns, is a query)`; `steal(a, b)` is
/// the share of CPU time stolen between `a` and `b` seconds.
pub fn windows(
    samples: &[(f64, f64, bool)],
    seconds: f64,
    steal: impl Fn(f64, f64) -> f64,
) -> Vec<Window> {
    let k = ((seconds / WINDOW_S).round() as usize).max(1);
    let width = seconds / k as f64;
    let mut ops = vec![0usize; k];
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); k];
    for &(at, ns, query) in samples {
        let i = ((at / width) as usize).min(k - 1);
        ops[i] += 1;
        if query {
            lat[i].push(ns);
        }
    }
    ops.into_iter()
        .zip(lat)
        .enumerate()
        .map(|(i, (n, l))| {
            let l = sorted(l);
            Window {
                steal: steal(i as f64 * width, (i + 1) as f64 * width),
                ops_s: n as f64 / width,
                p50_ns: percentile(&l, 50.0),
                p99_ns: percentile(&l, 99.0),
                latencies: l,
            }
        })
        .collect()
}

/// The windows the report takes its medians over: those with at most
/// [`STEAL_MAX`] stolen, or, when fewer than three or 30% qualify, that
/// many of the least-stolen windows. A burst of load from outside the
/// virtual machine then cannot move a run's figures.
pub fn clean(windows: &[Window]) -> Vec<&Window> {
    let floor = 3.max((windows.len() * 3).div_ceil(10)).min(windows.len());
    let mut by_steal: Vec<&Window> = windows.iter().collect();
    by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let qualifying = by_steal.iter().filter(|w| w.steal <= STEAL_MAX).count();
    by_steal.truncate(qualifying.max(floor));
    by_steal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), None, "999 samples leave 9 beyond p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0), "1000 samples leave 10 beyond p99");
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&[], 50.0), None);
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&few, 50.0), None, "19 samples leave 9 beyond p50");
    }

    #[test]
    fn windows_split_by_completion_time() {
        let samples: Vec<(f64, f64, bool)> =
            (0..8000).map(|i| (i as f64 / 4000.0, (i % 100) as f64, true)).collect();
        let w = windows(&samples, 2.0, |a, _| if a < 0.5 { 0.5 } else { 0.0 });
        assert_eq!(w.len(), 4);
        assert!(w.iter().all(|w| w.ops_s == 4000.0 && w.p99_ns == Some(98.0)));
        assert_eq!(w[0].steal, 0.5);
        let kept = clean(&w);
        assert_eq!(kept.len(), 3, "the stolen first window is left out");
        assert!(kept.iter().all(|w| w.steal == 0.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
