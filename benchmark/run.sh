#!/usr/bin/env bash
# Builds the benchmark into build-bench/ and runs it (benchmark/README.md).
#
#   benchmark/run.sh [--workload point|scan|selfjoin|churn|all] [--seed N]
#                    [--seconds S] [--trace 0|1] [--traced] [--smoke]
#                    [--self-test]
#
# Without --workload every workload runs.  --traced is --trace 1.  Build
# output goes to stderr; stdout carries the fingerprint, the metrics, and
# one JSON result line per workload.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

args=()
workload=all
while [[ $# -gt 0 ]]; do
  case "$1" in
    --traced) args+=(--trace 1) ;;
    --workload) workload="$2"; shift ;;
    --workload=*) workload="${1#--workload=}" ;;
    *) args+=("$1") ;;
  esac
  shift
done

build=build-bench
cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target simjoin_bench -j "$(nproc)" >&2

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$build/simjoin_bench" --workload "$workload" --commit "$commit" \
  --trace-dir "$build" "${args[@]}"
