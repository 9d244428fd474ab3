#!/usr/bin/env bash
# Builds and runs the II perf harness, emitting BENCH_ii.json at the repo
# root (the checked-in copy EXPERIMENTS.md references). Pass --quick for
# the small CI configuration; any extra flags are forwarded to the bench.
#
# Usage: tools/bench_ii.sh [--quick] [extra bench flags...]
#
# Refuses (exit 1, no file written) on machines with fewer than 4 cores:
# there `--check` skips the sharded-speedup floor, so a reference recorded
# there would hide the very regression that floor guards.
set -euo pipefail
cd "$(dirname "$0")/.."

CORES="$(nproc)"
if [ "$CORES" -lt 4 ]; then
  echo "bench_ii.sh: $CORES cores < 4; the sharded gate is skipped on such" \
       "machines, so BENCH_ii.json is not refreshed from here" >&2
  exit 1
fi

BUILD_DIR="${BUILD_DIR:-build}"
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_ii_kernels >/dev/null

"$BUILD_DIR/bench/bench_ii_kernels" --json=BENCH_ii.json "$@"
