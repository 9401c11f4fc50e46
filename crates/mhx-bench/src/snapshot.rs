//! Perf-snapshot gate rows and regression checking — the library behind
//! the `bench-check` binary (the CI perf gate).
//!
//! Every gated bench writes `BENCH_{stem}.json` at the workspace root
//! through [`write()`]: free-form members plus one uniform `gate` block,
//! `[{"name", "value", "healthy", "hard_min"}, …]`, whose floors the bench
//! sets and justifies next to its measurement. This module reads the block
//! back ([`tracked_metrics`]) and applies one rule ([`compare`]); a gated
//! snapshot is one stem in [`STEMS`] plus gate rows in its bench.
//!
//! The values are dimensionless **ratios**, which transfer across machines
//! far better than nanoseconds. A metric fails when it regresses **beyond
//! [`TOLERANCE`] of its baseline AND below its health floor** — both, so
//! noise does not flake the gate (a 25% wobble on a 700× speedup is still
//! a healthy 525×) while a real regression trips both at once. Below its
//! `hard_min` a metric fails unconditionally, and so does a row whose fresh
//! floors sit below the baseline's: a floor drops only through an edit to
//! the committed snapshot. JSON is [`mhx_json`]'s, re-exported here.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

pub use mhx_json::{parse, Json};

/// The gated snapshots, in gate order. Each stem names its bench target
/// (`cargo bench -p mhx-bench --bench {stem}`) and its snapshot file
/// ([`file_name`]); `bench-check --list` prints this table for CI.
pub const STEMS: [&str; 7] = ["axes", "catalog", "batch", "plan", "serve", "shard", "store"];

/// How far below its baseline a fresh value may fall before the relative
/// check fails (the health floor can still pass it).
pub const TOLERANCE: f64 = 0.25;

/// The snapshot file of a stem, relative to the workspace root.
pub fn file_name(stem: &str) -> String {
    format!("BENCH_{stem}.json")
}

/// The workspace root, where the committed snapshots live.
fn workspace_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// One tracked higher-is-better ratio — one row of a snapshot's `gate`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `stem:path` identifier, e.g. `axes:xfollowing:speedup`.
    pub name: String,
    pub value: f64,
    /// Absolute health floor: a fresh value at or above it never fails the
    /// relative check (guards microsecond-scale ratios against CI noise).
    pub healthy: f64,
    /// Unconditional minimum (acceptance floor).
    pub hard_min: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, healthy: f64, hard_min: f64) -> Self {
        Metric { name: name.into(), value, healthy, hard_min }
    }
}

/// `value` at the precision a bench reports it, exactly as `{:.places$}`
/// prints it: a verdict near a floor must not hinge on unreported digits.
pub fn rounded(value: f64, places: usize) -> f64 {
    format!("{value:.places$}").parse().expect("a formatted f64 parses back")
}

/// Verdict for one metric comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub name: String,
    pub baseline: f64,
    pub fresh: f64,
    pub passed: bool,
    pub detail: String,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:<40} baseline {:>10.2}  fresh {:>10.2}  {}",
            if self.passed { "PASS" } else { "FAIL" },
            self.name,
            self.baseline,
            self.fresh,
            self.detail
        )
    }
}

/// A snapshot's text: `fields` followed by the `gate` block (see [`write()`]).
fn render(fields: &str, gate: &[Metric]) -> String {
    let num = |v: f64| Json::Num(v).to_string();
    let row = |m: &Metric| {
        let (name, v, h, min) =
            (mhx_json::escape(&m.name), num(m.value), num(m.healthy), num(m.hard_min));
        format!(
            "    {{\"name\": \"{name}\", \"value\": {v}, \"healthy\": {h}, \"hard_min\": {min}}}"
        )
    };
    let rows: Vec<String> = gate.iter().map(row).collect();
    format!("{{\n{fields},\n  \"gate\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

/// Write `BENCH_{stem}.json` at the workspace root and return its path:
/// `fields` are the bench's free-form members, already formatted as
/// indented JSON object members (no braces, no trailing comma), and `gate`
/// becomes the `gate` block. Panics — the bench fails — if the file would
/// not read back through [`tracked_metrics`] as exactly `gate`.
pub fn write(stem: &str, fields: &str, gate: &[Metric]) -> PathBuf {
    let json = render(fields, gate);
    let read_back = parse(&json).and_then(|doc| tracked_metrics(stem, &doc));
    assert_eq!(read_back.as_deref(), Ok(gate), "{}: gate rows must read back", file_name(stem));
    let path = workspace_root().join(file_name(stem));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// Read the gate rows of `BENCH_{stem}.json` in `dir`.
pub fn load(dir: &Path, stem: &str) -> Result<Vec<Metric>, String> {
    let path = dir.join(file_name(stem));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    tracked_metrics(stem, &doc)
}

/// Read the `gate` block of one parsed snapshot. Errors when the block is
/// missing, empty or malformed, when a row lacks a finite number, when a
/// name is duplicated or does not start with `{stem}:`.
pub fn tracked_metrics(stem: &str, doc: &Json) -> Result<Vec<Metric>, String> {
    let file = file_name(stem);
    let rows = doc
        .get("gate")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{file}: missing `gate` array"))?;
    if rows.is_empty() {
        return Err(format!("{file}: `gate` is empty"));
    }
    let mut seen = BTreeSet::new();
    rows.iter()
        .map(|row| {
            let name = row
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{file}: gate row without a string `name`"))?;
            if !name.strip_prefix(stem).is_some_and(|rest| rest.starts_with(':')) {
                return Err(format!("{file}: gate row `{name}` lacks the `{stem}:` prefix"));
            }
            if !seen.insert(name) {
                return Err(format!("{file}: duplicate gate row `{name}`"));
            }
            let number = |key: &str| {
                row.get(key)
                    .and_then(Json::as_f64)
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| format!("{file}: gate row `{name}` without a finite `{key}`"))
            };
            Ok(Metric::new(name, number("value")?, number("healthy")?, number("hard_min")?))
        })
        .collect()
}

/// Compare fresh metrics against baseline metrics. Baseline metrics with
/// no fresh counterpart fail (shape drift must be deliberate: update the
/// committed snapshot); fresh metrics with no baseline are reported as
/// informational passes (they gate once committed).
pub fn compare(baseline: &[Metric], fresh: &[Metric]) -> Vec<Verdict> {
    let lone = |m: &Metric, missing: bool| {
        let (baseline, fresh, detail) = if missing {
            (m.value, f64::NAN, "metric missing from fresh snapshot")
        } else {
            (f64::NAN, m.value, "new metric (no baseline yet)")
        };
        Verdict { name: m.name.clone(), baseline, fresh, passed: !missing, detail: detail.into() }
    };
    let find = |set: &[Metric], name: &str| set.iter().find(|m| m.name == name).cloned();
    let judged = baseline
        .iter()
        .map(|b| find(fresh, &b.name).map_or_else(|| lone(b, true), |f| judge(b, &f)));
    let new = fresh.iter().filter(|m| find(baseline, &m.name).is_none()).map(|m| lone(m, false));
    judged.chain(new).collect()
}

fn judge(base: &Metric, fresh: &Metric) -> Verdict {
    let floor = base.value * (1.0 - TOLERANCE);
    let (pct, healthy) = (TOLERANCE * 100.0, fresh.healthy);
    let (passed, detail) = if fresh.healthy < base.healthy || fresh.hard_min < base.hard_min {
        let floors = |m: &Metric| format!("{:.2}/{:.2}", m.healthy, m.hard_min);
        (false, format!("floors {} below the baseline's {}", floors(fresh), floors(base)))
    } else if fresh.value < fresh.hard_min {
        (false, format!("below hard minimum {:.2}", fresh.hard_min))
    } else if fresh.value >= floor {
        (true, format!("within {pct:.0}% of baseline"))
    } else if fresh.value >= healthy {
        (
            true,
            format!("regressed past {pct:.0}% tolerance but still above health floor {healthy:.2}"),
        )
    } else {
        let limit = format!("regressed more than {pct:.0}% (limit {floor:.2})");
        (false, format!("{limit} and below health floor {healthy:.2}"))
    };
    Verdict { name: base.name.clone(), baseline: base.value, fresh: fresh.value, passed, detail }
}

/// Raise the hard minimum on every metric whose name starts with
/// `prefix` to at least `min` (never lowers a built-in floor) and return
/// how many metrics matched. This is `bench-check --min PREFIX=X` — and
/// how CI proves the gate can fail, by passing an impossibly high floor
/// and requiring a nonzero exit.
pub fn override_floor(metrics: &mut [Metric], prefix: &str, min: f64) -> usize {
    let mut matched = 0;
    for m in metrics.iter_mut().filter(|m| m.name.starts_with(prefix)) {
        m.hard_min = m.hard_min.max(min);
        matched += 1;
    }
    matched
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gate rows as a bench writes them, read back through the reader.
    fn read(stem: &str, rows: &[(&str, f64, f64, f64)]) -> Vec<Metric> {
        let gate: Vec<Metric> = rows.iter().map(|&(n, v, h, m)| Metric::new(n, v, h, m)).collect();
        tracked_metrics(stem, &parse(&render("  \"bench\": \"test\"", &gate)).unwrap()).unwrap()
    }

    /// Two axes-style rows: healthy 5, hard 2.
    fn axes(xfollowing: f64, overlapping: f64) -> Vec<Metric> {
        read(
            "axes",
            &[
                ("axes:xfollowing:speedup", xfollowing, 5.0, 2.0),
                ("axes:overlapping:speedup", overlapping, 5.0, 2.0),
            ],
        )
    }

    /// `(prefix, healthy, hard_min, degraded, wobbly)`: a committed row
    /// takes the first entry prefixing its name, must carry its floors, fail
    /// at the realistic `degraded` value and pass at `wobbly`. Degraded: an
    /// index, kernel, cache or rewrite that stopped helping (~1x), a front
    /// end back to worker-per-connection (parity ~0.13, the fleet capped at
    /// 8 workers, a thread per parked connection), two shards no faster than
    /// one node, a load slower than reparse, one wrong answer under churn.
    const SCENARIOS: [(&str, f64, f64, f64, f64); 23] = [
        ("axes:", 5.0, 2.0, 1.1, 6.0),
        ("catalog:hit_rate", 0.9, 0.5, 0.3, 0.92),
        ("catalog:compile_reduction", 2.0, 1.5, 1.0, 6.0),
        ("batch:xfollowing::*", 2.5, 2.0, 1.2, 3.0),
        ("batch:xpreceding::*", 2.5, 2.0, 1.2, 3.0),
        ("batch:descendant::", 2.5, 2.0, 1.2, 3.0),
        ("batch:", 1.0, 0.6, 0.4, 1.0),
        ("plan:reorder_cheap_first", 1.5, 1.0, 0.8, 2.0),
        ("plan:existential_early_exit", 25.0, 20.0, 5.0, 32.0),
        ("plan:hoisted_pred", 5.0, 2.0, 1.0, 100.0),
        ("plan:stats_reorder", 8.0, 4.0, 2.0, 9.0),
        ("plan:positional_", 1.0, 0.6, 0.4, 0.95),
        ("plan:", 2.5, 2.0, 1.1, 3.0),
        ("serve:workers1_vs_8", 0.9, 0.7, 0.13, 0.92),
        ("serve:keepalive_vs_fresh", 1.1, 0.9, 0.5, 1.2),
        ("serve:prepared_vs_adhoc", 1.0, 0.7, 0.4, 1.0),
        ("serve:active_with_idle_fleet", 0.8, 0.5, 0.3, 0.85),
        ("serve:idle_fleet_connections", 1000.0, 1000.0, 8.0, 1000.0),
        ("serve:idle_conns_per_extra_thread", 500.0, 100.0, 1.0, 500.0),
        ("shard:shard2_vs_single", 1.5, 1.1, 0.95, 1.6),
        ("shard:routed_vs_direct", 0.5, 0.3, 0.2, 0.65),
        ("store:cold_vs_reparse", 1.3, 1.05, 0.9, 1.35),
        ("store:over_budget_correct", 1.0, 1.0, 0.986, 1.0),
    ];

    #[test]
    fn every_committed_snapshot_has_a_readable_gate_block() {
        let mut used = BTreeSet::new();
        for stem in STEMS {
            let metrics = load(&workspace_root(), stem).unwrap();
            assert!(!metrics.is_empty(), "{stem}");
            let names: BTreeSet<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names.len(), metrics.len(), "{stem}: duplicate names");
            for row in &metrics {
                assert!(row.name.starts_with(&format!("{stem}:")), "{}", row.name);
                assert!(
                    row.value.is_finite() && row.healthy.is_finite() && row.hard_min.is_finite()
                );
                let &(prefix, healthy, hard_min, degraded, wobbly) = SCENARIOS
                    .iter()
                    .find(|s| row.name.starts_with(s.0))
                    .unwrap_or_else(|| panic!("{}: committed row without a scenario", row.name));
                used.insert(prefix);
                assert_eq!((row.healthy, row.hard_min), (healthy, hard_min), "{}", row.name);
                let at = |value| judge(row, &Metric { value, ..row.clone() });
                assert!(
                    !at(degraded).passed && at(wobbly).passed,
                    "{} / {}",
                    at(degraded),
                    at(wobbly)
                );
                // Below the hard floor even a matching baseline fails.
                let low = Metric { value: degraded, ..row.clone() };
                assert!(judge(&low, &low).detail.contains("hard minimum"), "{}", row.name);
            }
        }
        assert_eq!(used.len(), SCENARIOS.len(), "a scenario matches no committed row");
    }

    #[test]
    fn a_fresh_floor_below_the_baselines_fails() {
        let base = axes(19.5, 678.3);
        let mut fresh = base.clone();
        (fresh[0].hard_min, fresh[1].healthy) = (1.5, 4.0);
        let verdicts = compare(&base, &fresh);
        assert!(verdicts.iter().all(|v| v.detail.contains("below the baseline's")), "{verdicts:?}");
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");
        // Raised floors (as `--min` raises them) pass while the values clear them.
        (fresh[0].hard_min, fresh[1].healthy) = (3.0, 6.0);
        let verdicts = compare(&base, &fresh);
        assert!(verdicts.iter().all(|v| v.passed), "{verdicts:?}");
    }

    #[test]
    fn reader_rejects_malformed_gate_blocks() {
        let row = |name: &str| {
            format!(r#"{{"name": "{name}", "value": 16, "healthy": 5, "hard_min": 2}}"#)
        };
        let cases = [
            (r#"{"axes": []}"#.to_string(), "missing `gate`"),
            (r#"{"gate": {}}"#.into(), "missing `gate`"),
            (r#"{"gate": []}"#.into(), "empty"),
            (format!(r#"{{"gate": [{}]}}"#, row("xfollowing:speedup")), "prefix"),
            (format!(r#"{{"gate": [{}]}}"#, row("axesx:speedup")), "prefix"), // not `axes:`
            (format!(r#"{{"gate": [{}, {}]}}"#, row("axes:a"), row("axes:a")), "duplicate"),
            (r#"{"gate": [{"name": "axes:a", "value": 1, "healthy": 5}]}"#.into(), "hard_min"),
            (r#"{"gate": [{"name": "axes:a", "value": "16", "hard_min": 2}]}"#.into(), "value"),
            (r#"{"gate": [{"value": 16, "healthy": 5, "hard_min": 2}]}"#.into(), "name"),
        ];
        for (text, why) in cases {
            let err = tracked_metrics("axes", &parse(&text).unwrap()).unwrap_err();
            assert!(err.contains(why), "{text}: {err}");
        }
    }

    #[test]
    fn rounded_matches_the_printed_precision() {
        assert_eq!(rounded(0.696, 2), 0.70);
        assert_eq!((rounded(19.46, 1), rounded(0.98649, 3)), (19.5, 0.986));
    }

    #[test]
    fn identical_snapshots_pass() {
        let base = axes(19.5, 678.3);
        let verdicts = compare(&base, &base);
        assert!(verdicts.iter().all(|v| v.passed), "{verdicts:?}");
    }

    #[test]
    fn noise_within_tolerance_or_above_health_floor_passes() {
        // 19.5 → 16.0 is within 25%; 678.3 → 400.0 is far past 25% but way
        // above the 5x health floor — neither should flake the gate.
        let verdicts = compare(&axes(19.5, 678.3), &axes(16.0, 400.0));
        assert!(verdicts.iter().all(|v| v.passed), "{verdicts:?}");
        assert!(verdicts[1].detail.contains("above health floor"), "{verdicts:?}");
    }

    #[test]
    fn relative_regression_below_health_floor_fails() {
        // 40 → 4.5 is past 25% and under the 5x health floor, yet above the
        // 2x hard floor: the relative rule alone fails it.
        let verdicts = compare(&axes(40.0, 678.3), &axes(4.5, 678.3));
        assert!(!verdicts[0].passed && verdicts[1].passed, "{verdicts:?}");
        assert!(verdicts[0].detail.contains("below health floor"), "{verdicts:?}");
    }

    #[test]
    fn missing_metric_fails_new_metric_passes() {
        let fresh = read(
            "axes",
            &[
                ("axes:xfollowing:speedup", 19.0, 5.0, 2.0),
                ("axes:brand-new:speedup", 3.0, 2.5, 2.0),
            ],
        );
        let verdicts = compare(&axes(19.5, 678.3), &fresh);
        let missing = verdicts.iter().find(|v| v.name.contains("overlapping")).unwrap();
        assert!(!missing.passed);
        let new = verdicts.iter().find(|v| v.name.contains("brand-new")).unwrap();
        assert!(new.passed);
    }

    #[test]
    fn min_override_raises_floors_and_never_lowers_one() {
        let rows = [
            ("serve:workers1_vs_8:ratio", 1.0, 0.9, 0.7),
            ("serve:idle_fleet_connections:ratio", 1000.0, 1000.0, 1000.0),
        ];
        let mut metrics = read("serve", &rows);
        assert_eq!(override_floor(&mut metrics, "serve:", 1_000_000.0), 2);
        // Every serve metric is now below the impossible floor — the CI
        // self-test that proves the serve gate can fail.
        let verdicts = compare(&metrics.clone(), &metrics);
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");

        let mut metrics = read("serve", &rows);
        assert_eq!(override_floor(&mut metrics, "serve:", 0.01), 2);
        assert_eq!(metrics[1].hard_min, 1000.0, "a low override keeps the built-in floor");
        assert_eq!(override_floor(&mut metrics, "serve:workers1", 0.8), 1);
        assert_eq!((metrics[0].hard_min, metrics[1].hard_min), (0.8, 1000.0));
        assert_eq!(override_floor(&mut metrics, "shard:", 5.0), 0, "prefix matches nothing");
    }
}
