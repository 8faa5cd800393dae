#!/usr/bin/env bash
# Builds the library and tests under ThreadSanitizer and runs the
# concurrency-sensitive test targets (thread pool, parallel joins, parallel
# tree construction and flattening, the service's index registry, the
# loopback server, the cost-based range planner with its lazily built
# aux/LSH backends, the obs metrics/trace layer, the live-updatable delta
# tier with its background compaction, and the request-profiling path: the
# span hammer with a concurrent Prometheus exporter, slow-query-log
# record/drain races, profiled queries against the loopback server), so the
# work-stealing deque, the sleep / wake protocol, the sharded pair emission,
# registry refcounting/eviction, the io-thread <-> worker handoff, the
# plan/aux-backend caches under concurrent planning, the lock-free metric
# shards, the delta-memtable swap under concurrent updates/queries/
# compactions, and the collector propagation through pool tasks get
# exercised with full race checking.
#
# Usage: scripts/check_tsan.sh [build-dir] [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"
shift || true

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSIMJOIN_ENABLE_TSAN=ON \
  -DSIMJOIN_BUILD_BENCHMARKS=OFF \
  -DSIMJOIN_BUILD_EXAMPLES=OFF \
  -DSIMJOIN_WERROR=ON
cmake --build "${BUILD_DIR}" -j"$(nproc)"

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure \
  -R 'ThreadPool|TaskGroup|Parallel|Registry|Server|Planner|Lsh|IndexBackend|Counter|Histogram|Snapshot|Trace|Segment|Mmap|OutOfCore|Delta|Updatable|Compaction|RequestContext|SlowLog|ExplainProfile|PromExporter' "$@"
