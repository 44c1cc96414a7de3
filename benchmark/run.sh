#!/usr/bin/env bash
# Builds the benchmark package and runs it. Every argument goes to the
# binary:
#
#   benchmark/run.sh                                  every workload, end to end and traced
#   benchmark/run.sh --workload rtr_fleet_delta --seed 7 --seconds 10 --trace 0
#   benchmark/run.sh --quick                          small inputs, < 15 s in total
#   benchmark/run.sh --selfcheck [RUNS]               two sets of runs, compared
#   benchmark/run.sh --workload repro_paper --bless   rewrite a golden file
#
# A single-workload run ends its standard output with one JSON object;
# the exit code is non-zero when an output check failed or the build did.
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Build where the caller says (a relative CARGO_TARGET_DIR is relative to
# the caller's directory), else inside the benchmark's own directory.
target="${CARGO_TARGET_DIR:-$dir/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Cargo's progress goes to stderr: stdout belongs to the result.
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" >&2

BENCH_COMMIT="$(git -C "$dir" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT

exec "$target/release/rpki-benchmark" "$@"
