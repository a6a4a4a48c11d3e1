#!/usr/bin/env bash
# Time-budgeted fuzzing run of the four DMX fuzz targets (DESIGN.md §12):
#
#   fuzz_dmx_statement    differential analyzer/executor oracle
#   fuzz_store_recovery   fault-injected durability + recovery oracle
#   fuzz_tokenizer_parser tokenizer/parser/analyzer robustness
#   fuzz_wire_protocol    serving front end over raw client wire bytes
#
# Configures a -DDMX_FUZZ=ON build (ASan by default), builds the targets,
# then runs each for the given time budget seeded from the committed corpus
# in fuzz/corpus/<target> plus the fixed findings in fuzz/regressions/<target>.
# Under clang this is real coverage-guided libFuzzer; under GCC the bundled
# standalone driver replays + grammar-mutates with the same command line.
#
# Any crash leaves a crash-<target>-<hash> reproducer in WORK_DIR and fails
# the run. Triage: replay it (`build-fuzz/fuzz/<target> <file>`), fix the bug
# (or allowlist the divergence in fuzz/fuzz_targets.cc with a DESIGN.md §12
# justification), then commit the input under fuzz/regressions/<target>/ so
# tests/fuzz_regression_test.cc pins it in the default build forever.
#
# Usage: tools/run_fuzz.sh [SECONDS_PER_TARGET] [BUILD_DIR]
#   SECONDS_PER_TARGET  time budget per target (default: 60)
#   BUILD_DIR           fuzz build directory (default: build-fuzz)
# Environment:
#   DMX_FUZZ_SANITIZE   sanitizer config to build with (default: address)
#   DMX_FUZZ_TARGETS    space-separated subset to run (default: all four)

set -euo pipefail

cd "$(dirname "$0")/.."
REPO_ROOT="$(pwd)"
BUDGET="${1:-60}"
BUILD_DIR="${2:-build-fuzz}"
[[ "$BUILD_DIR" = /* ]] || BUILD_DIR="$REPO_ROOT/$BUILD_DIR"
SANITIZE="${DMX_FUZZ_SANITIZE:-address}"
TARGETS="${DMX_FUZZ_TARGETS:-fuzz_dmx_statement fuzz_store_recovery fuzz_tokenizer_parser fuzz_wire_protocol}"

cmake -B "$BUILD_DIR" -S . -DDMX_FUZZ=ON -DDMX_SANITIZE="$SANITIZE" >/dev/null
# shellcheck disable=SC2086
cmake --build "$BUILD_DIR" --target $TARGETS -j "$(nproc)"

WORK_DIR="$BUILD_DIR/fuzz-artifacts"
mkdir -p "$WORK_DIR"

FAILED=0
for target in $TARGETS; do
  corpus="$REPO_ROOT/fuzz/corpus/${target#fuzz_}"
  regressions="$REPO_ROOT/fuzz/regressions/${target#fuzz_}"
  # libFuzzer writes new coverage-increasing inputs into the FIRST corpus
  # dir, so the committed corpus rides behind a scratch dir that absorbs
  # them (the standalone driver reads all dirs and writes none).
  scratch="$WORK_DIR/corpus-${target#fuzz_}"
  mkdir -p "$scratch"
  dirs=("$scratch" "$corpus")
  [[ -d "$regressions" ]] && dirs+=("$regressions")
  echo "== $target: ${BUDGET}s over ${dirs[*]} =="
  if (cd "$WORK_DIR" && "$BUILD_DIR/fuzz/$target" "${dirs[@]}" \
        -max_total_time="$BUDGET" -seed="${RANDOM}"); then
    echo "$target: clean"
  else
    echo "$target: FAILED — reproducer(s) in $WORK_DIR:" >&2
    ls "$WORK_DIR"/crash-* >&2 || true
    FAILED=1
  fi
  echo
done

exit "$FAILED"
