#!/usr/bin/env bash
# Builds the library and tier-1 tests under ASan+UBSan and runs ctest, so the
# pointer-tiling join hot paths get exercised with full memory/UB checking.
# The full suite includes the segment-file robustness/fuzz tests (Segment*,
# Mmap*, RegistrySegment*) — truncated, bit-flipped, and version-skewed
# segment files go through the mmap loader with ASan watching every read —
# the updatable-tier suites (Delta*, Updatable*, Compaction*) exercising
# insert/remove/compaction memory churn, and the protocol fuzz soak on
# hostile wire bytes (malformed Insert/Remove/Flush frames included).
#
# Usage: scripts/check_asan_ubsan.sh [build-dir] [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
shift || true

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSIMJOIN_ENABLE_SANITIZERS=ON \
  -DSIMJOIN_BUILD_BENCHMARKS=OFF \
  -DSIMJOIN_BUILD_EXAMPLES=OFF \
  -DSIMJOIN_WERROR=ON
cmake --build "${BUILD_DIR}" -j"$(nproc)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure "$@"
