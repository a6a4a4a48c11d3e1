#!/usr/bin/env bash
# Runs the tracked benchmarks and captures their google-benchmark JSON:
#
#   bench/bench_concurrency.cc -> BENCH_concurrency.json
#       ops/s record (items_per_second) for lock-regime throughput
#   bench/bench_recovery.cc    -> BENCH_recovery.json
#       reopen latency vs model count, serial (recovery_threads=1) vs
#       parallel (recovery_threads=0) shard replay. On a single-core host
#       both configurations degenerate to serial — the JSON's num_cpus
#       field records the machine so readers can tell.
#   bench/bench_hotpath.cc     -> BENCH_hotpath.json
#       allocs/row + bytes/row for the guard-checkpointed hot loops
#       (scan+filter, SHAPE indexing, InsertCases, per-service prediction
#       join). Needs -DDMX_ALLOC_STATS=ON for live counters, so this one
#       builds in its own BUILD_DIR-alloc tree (configured on demand).
#
# The console tables still print for humans.
#
# The BENCH_*.json files are append-only histories (see tools/bench_append.py
# for the schema): each run adds a timestamped, commit-keyed record, so the
# committed numbers accumulate across machines instead of being overwritten
# by whichever host ran last.
#
# Served throughput, latency and drain time are measured by dmxbench
# (dmxbench/run.py), not here.
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

cmake --build "$BUILD_DIR" \
  --target bench_concurrency bench_recovery \
  -j "$(nproc)"

"$BUILD_DIR/bench/bench_concurrency" \
  --benchmark_format=console \
  --benchmark_out="$TMP_DIR/concurrency.json" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.2

append concurrency

"$BUILD_DIR/bench/bench_recovery" \
  --benchmark_format=console \
  --benchmark_out="$TMP_DIR/recovery.json" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.2

append recovery

# Allocation accounting needs the counting operators compiled in, which the
# main build tree deliberately leaves off (zero-overhead default). Configure
# a sibling tree once and reuse it across runs.
ALLOC_BUILD_DIR="${BUILD_DIR%/}-alloc"
if [[ ! -f "$ALLOC_BUILD_DIR/CMakeCache.txt" ]]; then
  cmake -B "$ALLOC_BUILD_DIR" -S "$REPO_ROOT" \
    -DCMAKE_BUILD_TYPE=Release -DDMX_ALLOC_STATS=ON
fi
cmake --build "$ALLOC_BUILD_DIR" --target bench_hotpath -j "$(nproc)"

"$ALLOC_BUILD_DIR/bench/bench_hotpath" \
  --benchmark_format=console \
  --benchmark_out="$TMP_DIR/hotpath.json" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.2

append hotpath
