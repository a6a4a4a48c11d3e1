#!/usr/bin/env bash
# Runs the tracked benchmark and captures its google-benchmark JSON:
#
#   bench/bench_recovery.cc    -> BENCH_recovery.json
#       reopen latency vs model count, serial (recovery_threads=1) vs
#       parallel (recovery_threads=0) shard replay. On a single-core host
#       both configurations degenerate to serial — the JSON's num_cpus
#       field records the machine so readers can tell.
#
# The console table still prints for humans.
#
# The BENCH_*.json files are append-only histories (see tools/bench_append.py
# for the schema): each run adds a timestamped, commit-keyed record, so the
# committed numbers accumulate across machines instead of being overwritten
# by whichever host ran last.
#
# Served throughput, latency, lock waits and drain time are measured by
# dmxbench (dmxbench/run.py), not here; the hot loops' allocations are
# held under ceilings by tests/alloc_budget_test.cc.
#
# Usage: tools/run_bench.sh [BUILD_DIR] [OUTPUT_DIR]
#   BUILD_DIR   build directory configured with -DCMAKE_BUILD_TYPE=Release
#               (default: build); any other build type is refused
#   OUTPUT_DIR  where the BENCH_*.json histories live (default: repo root)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
OUTPUT_DIR="${2:-$REPO_ROOT}"
mkdir -p "$OUTPUT_DIR"

COMMIT="$(git -C "$REPO_ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"
STAMP="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

append() {
  python3 "$REPO_ROOT/tools/bench_append.py" \
    --history "$OUTPUT_DIR/BENCH_$1.json" --run "$TMP_DIR/$1.json" \
    --commit "$COMMIT" --timestamp "$STAMP"
}

if [[ ! -d "$BUILD_DIR" ]]; then
  echo "run_bench: build directory '$BUILD_DIR' not found;" \
       "configure with: cmake -B '$BUILD_DIR' -S '$REPO_ROOT'" >&2
  exit 1
fi
# Numbers from an unoptimized build would enter the histories as if
# comparable; refuse them, as dmxbench/run.py does.
if ! grep -qx 'CMAKE_BUILD_TYPE:STRING=Release' "$BUILD_DIR/CMakeCache.txt" \
    2>/dev/null; then
  echo "run_bench: '$BUILD_DIR' is not a Release build;" \
       "configure with: cmake -B '$BUILD_DIR' -S '$REPO_ROOT'" \
       "-DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi

cmake --build "$BUILD_DIR" --target bench_recovery -j "$(nproc)"

"$BUILD_DIR/bench/bench_recovery" \
  --benchmark_format=console \
  --benchmark_out="$TMP_DIR/recovery.json" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.2

append recovery

