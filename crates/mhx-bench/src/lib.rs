//! # mhx-bench — benchmark harness
//!
//! One Criterion bench target per experiment family:
//!
//! * `fig_paper` — E1/E2 (Figure 1 parse + Figure 2 build) and E3–E7
//!   (the §4 queries on the paper's document);
//! * `baseline_vs_goddag` — E8 (KyGODDAG vs milestone vs fragmentation,
//!   series over size and overlap density);
//! * `axes` — E9 (interval vs literal set semantics) and E12 (per-axis
//!   microbenchmarks) plus E10's order iteration, and E13's
//!   indexed-vs-scan snapshot (`BENCH_axes.json`);
//! * `catalog` — E14 (multi-document serving through the shared plan
//!   cache, `BENCH_catalog.json`);
//! * `batch` — E15 (batched vs per-node step evaluation on wide context
//!   sets, `BENCH_batch.json`);
//! * `plan` — the plan optimizer, optimized vs as-written on the same
//!   compiled queries (`BENCH_plan.json`);
//! * `serve` — the `mhxd` network stack under concurrent TCP load:
//!   one-worker parity, keep-alive vs fresh connections, prepared vs
//!   ad-hoc, and a 1000-connection idle fleet (`BENCH_serve.json`);
//! * `shard` — the `mhxr` router over two `mhxd` shards vs one node, and
//!   the routed hop's cost (`BENCH_shard.json`);
//! * `store` — snapshot cold start vs reparse, and answers under a
//!   memory budget that forces eviction churn (`BENCH_store.json`);
//! * `goddag_scaling` — E10 (construction scaling);
//! * `analyze_string` — E11 (Definition-4 machinery).
//!
//! Run with `cargo bench -p mhx-bench`.
//!
//! The crate also ships the **`bench-check` binary** — the CI
//! perf-regression gate. Each `BENCH_*.json` bench writes its snapshot
//! through [`snapshot::write`], with a uniform `gate` block of
//! `{"name", "value", "healthy", "hard_min"}` rows whose floors the bench
//! sets next to its measurement. `bench-check` reads those rows back with
//! one generic reader and exits nonzero when a tracked ratio regresses
//! against the committed baseline ([`snapshot`] holds the stem table, the
//! reader and the pass/fail rule; the JSON parser is `mhx_json`).

pub mod snapshot;
