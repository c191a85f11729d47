#!/usr/bin/env bash
# Builds bench_e2e (offline, release) and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload in one process; the last line of standard output is
#       the JSON result (this is the command BENCHMARK.json records)
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--repeat]
#       every workload, each in its own process, untraced then traced;
#       prints every metric by name with its unit, writes out/results.json;
#       --repeat runs two sets and fails when they disagree beyond a bound
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
# Share the repository's target directory unless the caller names one. A
# relative CARGO_TARGET_DIR is relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" >&2

export BENCH_E2E_OUT="${BENCH_E2E_OUT:-$here/out}"
bin="$target/release/bench_e2e"
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$bin" "$@"
  fi
done
exec "$bin" suite "$@"
