#!/usr/bin/env bash
# One command for the benchmark: builds `dj` and the harness in release, then
# hands over to the harness.
#
#   benchmark/run.sh run     [--seed S] [--workload W] [--runs R]   every workload, tracing off, gates enforced
#   benchmark/run.sh trace   [--seed S] [--workload W]              every workload traced: per-layer metrics, span files
#   benchmark/run.sh quick                                          small smoke run of both (not a measurement)
#   benchmark/run.sh repeat  [--seed S]                             two full sets; fails if they differ by more than a bound
#   benchmark/run.sh compare <a.json> <b.json>                      one row per (metric, workload)
#   benchmark/run.sh test                                           the harness's unit tests
#   benchmark/run.sh driver  --workload W --seed N --seconds S --trace 0|1
#                                                                   the BENCHMARK.json command: one run, result on the last stdout line
#
# Everything is read and written inside the checkout: build output under
# $CARGO_TARGET_DIR (default benchmark/target), results and scratch under
# benchmark/out. The root Cargo.toml and Cargo.lock are never touched.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

cmd="${1:-run}"
[ $# -gt 0 ] && shift

if [ "$cmd" = test ]; then
    exec cargo test --release --offline --manifest-path benchmark/Cargo.toml "$@"
fi

# `dj` is built from crates/core through this package's workspace (one
# compile of the crates serves both binaries); the release profile is the
# repository's, which a unit test checks. Cargo's progress goes to stderr.
cargo build --release --offline --manifest-path benchmark/Cargo.toml \
    -p dj-benchmark -p deepjoin --bin djbench --bin dj >&2

exec "$CARGO_TARGET_DIR/release/djbench" "$cmd" "$@"
