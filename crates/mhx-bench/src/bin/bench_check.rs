//! `bench-check` — the CI perf-regression gate: compares freshly emitted
//! bench snapshots against the committed baselines and exits nonzero when
//! a tracked ratio regresses (rule: `mhx_bench::snapshot`); synopsis in
//! `bench-check --help`.
//!
//! `--baseline` holds copies of the committed `BENCH_*.json` saved before
//! the bench run (the benches overwrite them in place); `--fresh` (default
//! `.`) the just-emitted ones. `--min PREFIX=X` (repeatable) raises the
//! hard floor of every fresh metric named `PREFIX…` to at least `X`, and is
//! an error when it matches none; CI passes an impossible `X` per stem to
//! prove the gate can fail. `--list` prints one `stem file` line per
//! tracked snapshot — CI's single source of truth for its bench steps.

use mhx_bench::snapshot::{compare, file_name, load, override_floor, STEMS, TOLERANCE};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "bench-check --baseline <dir> [--fresh <dir>] [--min PREFIX=X]...\n\
    bench-check --list    print the tracked `stem file` snapshot table \
    (CI's single source of truth) and exit";

struct Args {
    list: bool,
    baseline: Option<PathBuf>,
    fresh: PathBuf,
    mins: Vec<(String, f64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { list: false, baseline: None, fresh: PathBuf::from("."), mins: Vec::new() };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--list" => args.list = true,
            "--baseline" => args.baseline = Some(PathBuf::from(value()?)),
            "--fresh" => args.fresh = PathBuf::from(value()?),
            "--min" => {
                let v = value()?;
                let (prefix, min) = v
                    .split_once('=')
                    .and_then(|(p, x)| Some((p.to_string(), x.parse::<f64>().ok()?)))
                    .ok_or_else(|| format!("--min expects PREFIX=NUMBER, got `{v}`"))?;
                args.mins.push((prefix, min));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Runs the gate; `Err` is a usage or input error (exit 2), distinct from
/// a regression (exit 1).
fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if args.list {
        for stem in STEMS {
            println!("{stem} {}", file_name(stem));
        }
        return Ok(ExitCode::SUCCESS);
    }
    let baseline = args.baseline.as_deref().ok_or("--baseline <dir> is required (or --list)")?;
    let (mut report, mut matched) = (Vec::new(), vec![0; args.mins.len()]);
    for stem in STEMS {
        let base = load(baseline, stem).map_err(|e| format!("baseline {e}"))?;
        let mut fresh = load(&args.fresh, stem).map_err(|e| format!("fresh {e}"))?;
        for ((prefix, min), n) in args.mins.iter().zip(&mut matched) {
            *n += override_floor(&mut fresh, prefix, *min);
        }
        report.push((stem, compare(&base, &fresh)));
    }
    if let Some(((prefix, _), _)) = args.mins.iter().zip(&matched).find(|(_, &n)| n == 0) {
        return Err(format!("--min prefix `{prefix}` matches no tracked metric"));
    }
    let (mut failures, mut total) = (0usize, 0usize);
    for (stem, verdicts) in report {
        println!("== {}", file_name(stem));
        for verdict in verdicts {
            println!("  {verdict}");
            total += 1;
            failures += usize::from(!verdict.passed);
        }
    }
    if failures > 0 {
        eprintln!(
            "bench-check: {failures}/{total} tracked ratios regressed (tolerance {:.0}%)",
            TOLERANCE * 100.0
        );
        return Ok(ExitCode::FAILURE);
    }
    println!("bench-check: all {total} tracked ratios within tolerance");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("bench-check: {e}");
        ExitCode::from(2)
    })
}
