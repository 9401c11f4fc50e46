#!/usr/bin/env bash
# Build the daemons under test and the benchmark from source, then run one
# workload:
#
#   bash perfbench/run.sh --workload hot_reads --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build), scratch
# data and span files to .bench_tmp, both at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d src/server ]; then
    echo "perfbench: $root is not a full checkout of the repository" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --bin mhxd --bin mhxr >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --bin-dir "$target/release" --work-dir "$root/.bench_tmp" "$@"
