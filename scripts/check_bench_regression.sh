#!/usr/bin/env bash
# Guards the join-hot-path benchmarks against performance regressions.
#
# Runs the kernel-filter micro-benchmarks (bench_r12_micro), the
# flat-vs-pointer leaf-join ablation (bench_r10_ablation_leafjoin), the
# parallel thread-scaling sweep (bench_r11_parallel), and the query-service
# loopback load test (bench_r19_service), writes machine-readable snapshots
# next to the repo root:
#
#   BENCH_micro.json     google-benchmark JSON for BM_KernelFilter*
#   BENCH_leafjoin.json  ablation-3 throughputs + flat/pointer ratio
#   BENCH_parallel.json  R11 thread-scaling sweep (speedups per thread count)
#   BENCH_service.json   R19 service QPS + latency percentiles over loopback
#   BENCH_obs.json       R20 observability primitive costs + trace overhead
#   BENCH_fused.json     R21 fused vs per-request service QPS + identity bit
#   BENCH_planner.json   R22 planner routing overhead + LSH-tier speedup
#   BENCH_outofcore.json R23 external-build identity + mmap fault-in gates
#   BENCH_updates.json   R24 live-update identity + steady-state churn ratio
#
# and compares them against the checked-in baselines
# (BENCH_micro.baseline.json / BENCH_leafjoin.baseline.json /
# BENCH_parallel.baseline.json / BENCH_service.baseline.json /
# BENCH_obs.baseline.json) when present: any tracked throughput that drops
# more than SIMJOIN_BENCH_TOLERANCE (default 0.30 = 30%, benchmarks are
# noisy) below baseline fails the run.
#
# The R20 run doubles as the metrics-overhead gate: bench_r20_obs_overhead
# exits nonzero if disabled-instrumentation primitives exceed their hard
# ns ceilings, and SIMJOIN_BENCH_OBS_TOLERANCE (default 0.03 = 3%) bounds
# how far the instrumented R19 service QPS may sit below its baseline and
# how much the R20 tracing-on/off join ratio may grow before the run fails.
#
# The R21 run carries two absolute gates on top of the usual baseline
# comparison: the fused server must answer bit-identically to the
# per-request server (identical == true; the bench itself exits nonzero
# otherwise), and fusion must deliver at least
# SIMJOIN_BENCH_FUSED_MIN_SPEEDUP (default 1.5) times the per-request QPS
# at the bench's high-concurrency batch=1 configuration.
#
# The R23 run gates the out-of-core segment tier with absolute checks: the
# externally bulk-loaded segment must be byte-identical to the in-RAM
# build's WriteSegment output, mapped-tree queries must answer bit-
# identically to the heap tree, the registry must stay under its byte
# budget while serving the 4x-budget index, the post-release resident set
# must stay under the budget, and fault-in time-to-first-query must beat an
# in-RAM rebuild by at least SIMJOIN_BENCH_OUTOFCORE_MIN_SPEEDUP (default
# 5.0) times.  The bench binary asserts all of these itself and exits
# nonzero on breach; the JSON gates re-check them here.
#
# The R24 run gates the live-updatable tier: every drift-timeline answer
# (and the post-Flush requeries) must be bit-identical to a stop-the-world
# rebuild oracle (the bench exits nonzero otherwise), and steady-state
# query throughput at a 1% update rate — background compaction included —
# must stay within SIMJOIN_BENCH_UPDATES_TOLERANCE (default 0.20) of the
# immutable snapshot serving the same point set.
#
# The R22 run gates the cost-based backend planner: planner-routed exact
# answers must be bit-identical to forced ekdb-flat (the bench exits
# nonzero otherwise), routed-exact QPS (qps_routed) must stay within
# SIMJOIN_BENCH_PLANNER_EXACT_TOLERANCE (default 0.05) of requests forcing
# the ekdb-flat tree (qps_forced_tree), the recall-0.9 route must deliver
# at least SIMJOIN_BENCH_PLANNER_MIN_SPEEDUP (default 3.0) times the
# forced-exact
# QPS on the high-d clustered workload, and its measured recall must clear
# the target minus a 0.05 sampling allowance.
#
# Usage:
#   scripts/check_bench_regression.sh [build-dir] [--update-baseline]
#
#   --update-baseline   re-run and promote the fresh snapshots to baselines
#   SIMJOIN_BENCH_TOLERANCE=0.15   tighten/loosen the allowed slowdown
#   SIMJOIN_BENCH_OBS_TOLERANCE=0.05   loosen the metrics-overhead gate
#   SIMJOIN_BENCH_FILTER='BM_KernelFilter'   micro-benchmark name filter
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="build"
UPDATE_BASELINE=0
for arg in "$@"; do
  case "$arg" in
    --update-baseline) UPDATE_BASELINE=1 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

TOLERANCE="${SIMJOIN_BENCH_TOLERANCE:-0.30}"
OBS_TOLERANCE="${SIMJOIN_BENCH_OBS_TOLERANCE:-0.03}"
FUSED_MIN_SPEEDUP="${SIMJOIN_BENCH_FUSED_MIN_SPEEDUP:-1.5}"
PLANNER_MIN_SPEEDUP="${SIMJOIN_BENCH_PLANNER_MIN_SPEEDUP:-3.0}"
PLANNER_EXACT_TOLERANCE="${SIMJOIN_BENCH_PLANNER_EXACT_TOLERANCE:-0.05}"
OUTOFCORE_MIN_SPEEDUP="${SIMJOIN_BENCH_OUTOFCORE_MIN_SPEEDUP:-5.0}"
UPDATES_TOLERANCE="${SIMJOIN_BENCH_UPDATES_TOLERANCE:-0.20}"
FILTER="${SIMJOIN_BENCH_FILTER:-BM_KernelFilter}"
MICRO_BIN="$BUILD_DIR/bench/bench_r12_micro"
ABLATION_BIN="$BUILD_DIR/bench/bench_r10_ablation_leafjoin"
PARALLEL_BIN="$BUILD_DIR/bench/bench_r11_parallel"
SERVICE_BIN="$BUILD_DIR/bench/bench_r19_service"
OBS_BIN="$BUILD_DIR/bench/bench_r20_obs_overhead"
FUSED_BIN="$BUILD_DIR/bench/bench_r21_fused"
PLANNER_BIN="$BUILD_DIR/bench/bench_r22_planner"
OUTOFCORE_BIN="$BUILD_DIR/bench/bench_r23_outofcore"
UPDATES_BIN="$BUILD_DIR/bench/bench_r24_updates"

for bin in "$MICRO_BIN" "$ABLATION_BIN" "$PARALLEL_BIN" "$SERVICE_BIN" \
           "$OBS_BIN" "$FUSED_BIN" "$PLANNER_BIN" "$OUTOFCORE_BIN" \
           "$UPDATES_BIN"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found; build with benchmarks first:" >&2
    echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
  fi
done

echo ">>> $MICRO_BIN (filter: $FILTER)"
"$MICRO_BIN" --benchmark_filter="$FILTER" \
  --benchmark_out=BENCH_micro.json --benchmark_out_format=json \
  --benchmark_min_time=0.05

echo ">>> $ABLATION_BIN"
ABLATION_TXT="$(mktemp)"
trap 'rm -f "$ABLATION_TXT"' EXIT
"$ABLATION_BIN" | tee "$ABLATION_TXT"

# Distill ablation 3's CSV block + ratio line into BENCH_leafjoin.json.
python3 - "$ABLATION_TXT" <<'PY'
import json, re, sys

text = open(sys.argv[1]).read()
rows = {}
for m in re.finditer(r"^# (ekdb[a-z-]*),.*?,([0-9.]+),(\d+),(\d+),(\d+)$",
                     text, re.M):
    rows[m.group(1)] = {
        "cand_per_sec_millions": float(m.group(2)),
        "candidates": int(m.group(3)),
        "pairs": int(m.group(4)),
        "bytes": int(m.group(5)),
    }
ratio = re.search(r"ratio: ([0-9.]+)x", text)
out = {
    "pointer": rows.get("ekdb"),
    "flat": rows.get("ekdb-flat"),
    "flat_vs_pointer_ratio": float(ratio.group(1)) if ratio else None,
}
if out["pointer"] is None or out["flat"] is None:
    sys.exit("error: could not parse ablation-3 CSV rows from bench output")
json.dump(out, open("BENCH_leafjoin.json", "w"), indent=2)
print("wrote BENCH_leafjoin.json")
PY

echo ">>> $PARALLEL_BIN"
PARALLEL_TXT="$(mktemp)"
trap 'rm -f "$ABLATION_TXT" "$PARALLEL_TXT"' EXIT
"$PARALLEL_BIN" | tee "$PARALLEL_TXT"

# Extract the machine-readable PARALLEL_JSON line into BENCH_parallel.json.
python3 - "$PARALLEL_TXT" <<'PY'
import json, re, sys

text = open(sys.argv[1]).read()
m = re.search(r"^# PARALLEL_JSON (\{.*\})$", text, re.M)
if m is None:
    sys.exit("error: bench_r11_parallel emitted no PARALLEL_JSON line")
json.dump(json.loads(m.group(1)), open("BENCH_parallel.json", "w"), indent=2)
print("wrote BENCH_parallel.json")
PY

echo ">>> $SERVICE_BIN"
SERVICE_TXT="$(mktemp)"
trap 'rm -f "$ABLATION_TXT" "$PARALLEL_TXT" "$SERVICE_TXT"' EXIT
"$SERVICE_BIN" --seconds 2 | tee "$SERVICE_TXT"

# Extract the machine-readable SERVICE_JSON line into BENCH_service.json.
python3 - "$SERVICE_TXT" <<'PY'
import json, re, sys

text = open(sys.argv[1]).read()
m = re.search(r"^# SERVICE_JSON (\{.*\})$", text, re.M)
if m is None:
    sys.exit("error: bench_r19_service emitted no SERVICE_JSON line")
json.dump(json.loads(m.group(1)), open("BENCH_service.json", "w"), indent=2)
print("wrote BENCH_service.json")
PY

# The R20 binary asserts its own hard ceilings on disabled-instrumentation
# cost and exits nonzero on failure (set -e propagates it).
echo ">>> $OBS_BIN"
OBS_TXT="$(mktemp)"
trap 'rm -f "$ABLATION_TXT" "$PARALLEL_TXT" "$SERVICE_TXT" "$OBS_TXT"' EXIT
"$OBS_BIN" | tee "$OBS_TXT"

# Extract the machine-readable OBS_JSON line into BENCH_obs.json.
python3 - "$OBS_TXT" <<'PY'
import json, re, sys

text = open(sys.argv[1]).read()
m = re.search(r"^# OBS_JSON (\{.*\})$", text, re.M)
if m is None:
    sys.exit("error: bench_r20_obs_overhead emitted no OBS_JSON line")
json.dump(json.loads(m.group(1)), open("BENCH_obs.json", "w"), indent=2)
print("wrote BENCH_obs.json")
PY

# The R21 binary enforces bit-identity itself (fused responses must match
# per-request responses byte for byte) and exits nonzero on divergence or
# request errors; set -e propagates that here.
echo ">>> $FUSED_BIN"
FUSED_TXT="$(mktemp)"
trap 'rm -f "$ABLATION_TXT" "$PARALLEL_TXT" "$SERVICE_TXT" "$OBS_TXT" \
  "$FUSED_TXT"' EXIT
"$FUSED_BIN" --seconds 2 | tee "$FUSED_TXT"

# Extract the machine-readable FUSED_JSON line into BENCH_fused.json.
python3 - "$FUSED_TXT" <<'PY'
import json, re, sys

text = open(sys.argv[1]).read()
m = re.search(r"^# FUSED_JSON (\{.*\})$", text, re.M)
if m is None:
    sys.exit("error: bench_r21_fused emitted no FUSED_JSON line")
json.dump(json.loads(m.group(1)), open("BENCH_fused.json", "w"), indent=2)
print("wrote BENCH_fused.json")
PY

# The R22 binary enforces routed-exact bit-identity itself and exits
# nonzero on divergence or request errors; set -e propagates that here.
echo ">>> $PLANNER_BIN"
PLANNER_TXT="$(mktemp)"
trap 'rm -f "$ABLATION_TXT" "$PARALLEL_TXT" "$SERVICE_TXT" "$OBS_TXT" \
  "$FUSED_TXT" "$PLANNER_TXT"' EXIT
"$PLANNER_BIN" --seconds 2 | tee "$PLANNER_TXT"

# Extract the machine-readable PLANNER_JSON line into BENCH_planner.json.
python3 - "$PLANNER_TXT" <<'PY'
import json, re, sys

text = open(sys.argv[1]).read()
m = re.search(r"^# PLANNER_JSON (\{.*\})$", text, re.M)
if m is None:
    sys.exit("error: bench_r22_planner emitted no PLANNER_JSON line")
json.dump(json.loads(m.group(1)), open("BENCH_planner.json", "w"), indent=2)
print("wrote BENCH_planner.json")
PY

# The R23 binary asserts external-build byte-identity, mapped-query
# bit-identity, the registry byte budget, the resident-set ceiling, and the
# minimum fault-in speedup itself, exiting nonzero on breach; set -e
# propagates that here.
echo ">>> $OUTOFCORE_BIN"
OUTOFCORE_TXT="$(mktemp)"
trap 'rm -f "$ABLATION_TXT" "$PARALLEL_TXT" "$SERVICE_TXT" "$OBS_TXT" \
  "$FUSED_TXT" "$PLANNER_TXT" "$OUTOFCORE_TXT"' EXIT
"$OUTOFCORE_BIN" | tee "$OUTOFCORE_TXT"

# Extract the machine-readable OUTOFCORE_JSON line into BENCH_outofcore.json.
python3 - "$OUTOFCORE_TXT" <<'PY'
import json, re, sys

text = open(sys.argv[1]).read()
m = re.search(r"^# OUTOFCORE_JSON (\{.*\})$", text, re.M)
if m is None:
    sys.exit("error: bench_r23_outofcore emitted no OUTOFCORE_JSON line")
json.dump(json.loads(m.group(1)), open("BENCH_outofcore.json", "w"), indent=2)
print("wrote BENCH_outofcore.json")
PY

# The R24 binary asserts drift-timeline bit-identity against the
# stop-the-world rebuild oracle itself and exits nonzero on divergence or
# request errors; set -e propagates that here.
echo ">>> $UPDATES_BIN"
UPDATES_TXT="$(mktemp)"
trap 'rm -f "$ABLATION_TXT" "$PARALLEL_TXT" "$SERVICE_TXT" "$OBS_TXT" \
  "$FUSED_TXT" "$PLANNER_TXT" "$OUTOFCORE_TXT" "$UPDATES_TXT"' EXIT
"$UPDATES_BIN" --seconds 2 | tee "$UPDATES_TXT"

# Extract the machine-readable UPDATES_JSON line into BENCH_updates.json.
python3 - "$UPDATES_TXT" <<'PY'
import json, re, sys

text = open(sys.argv[1]).read()
m = re.search(r"^# UPDATES_JSON (\{.*\})$", text, re.M)
if m is None:
    sys.exit("error: bench_r24_updates emitted no UPDATES_JSON line")
json.dump(json.loads(m.group(1)), open("BENCH_updates.json", "w"), indent=2)
print("wrote BENCH_updates.json")
PY

if [[ "$UPDATE_BASELINE" == 1 ]]; then
  cp BENCH_micro.json BENCH_micro.baseline.json
  cp BENCH_leafjoin.json BENCH_leafjoin.baseline.json
  cp BENCH_parallel.json BENCH_parallel.baseline.json
  cp BENCH_service.json BENCH_service.baseline.json
  cp BENCH_obs.json BENCH_obs.baseline.json
  cp BENCH_fused.json BENCH_fused.baseline.json
  cp BENCH_planner.json BENCH_planner.baseline.json
  cp BENCH_outofcore.json BENCH_outofcore.baseline.json
  cp BENCH_updates.json BENCH_updates.baseline.json
  echo "baselines updated (BENCH_*.baseline.json)"
  exit 0
fi

python3 - "$TOLERANCE" "$OBS_TOLERANCE" "$FUSED_MIN_SPEEDUP" \
  "$PLANNER_MIN_SPEEDUP" "$PLANNER_EXACT_TOLERANCE" \
  "$OUTOFCORE_MIN_SPEEDUP" "$UPDATES_TOLERANCE" <<'PY'
import json, os, sys

tol = float(sys.argv[1])
obs_tol = float(sys.argv[2])
fused_min_speedup = float(sys.argv[3])
planner_min_speedup = float(sys.argv[4])
planner_exact_tol = float(sys.argv[5])
outofcore_min_speedup = float(sys.argv[6])
updates_tol = float(sys.argv[7])
failures = []


def compare(name, current, baseline):
    drop = (baseline - current) / baseline if baseline > 0 else 0.0
    status = "FAIL" if drop > tol else "ok"
    print(f"  [{status}] {name}: {current:.3g} vs baseline {baseline:.3g} "
          f"({-drop:+.1%})")
    if drop > tol:
        failures.append(name)


have_baseline = False
if os.path.exists("BENCH_micro.baseline.json"):
    have_baseline = True
    cur = {b["name"]: b for b in json.load(open("BENCH_micro.json"))["benchmarks"]}
    base = {b["name"]: b
            for b in json.load(open("BENCH_micro.baseline.json"))["benchmarks"]}
    print("micro-kernel items/s vs baseline "
          f"(tolerance {tol:.0%}):")
    for name in sorted(set(cur) & set(base)):
        compare(name, cur[name].get("items_per_second", 0.0),
                base[name].get("items_per_second", 0.0))

if os.path.exists("BENCH_leafjoin.baseline.json"):
    have_baseline = True
    cur = json.load(open("BENCH_leafjoin.json"))
    base = json.load(open("BENCH_leafjoin.baseline.json"))
    print("leaf-join throughput vs baseline:")
    for layout in ("pointer", "flat"):
        compare(f"leafjoin/{layout}",
                cur[layout]["cand_per_sec_millions"],
                base[layout]["cand_per_sec_millions"])
    compare("leafjoin/flat_vs_pointer_ratio",
            cur["flat_vs_pointer_ratio"], base["flat_vs_pointer_ratio"])

if os.path.exists("BENCH_parallel.baseline.json"):
    have_baseline = True
    cur = json.load(open("BENCH_parallel.json"))
    base = json.load(open("BENCH_parallel.baseline.json"))
    # Speedups are only comparable when the host core count matches the
    # baseline's; a different machine gets a fresh snapshot, not a failure.
    if cur.get("hardware_concurrency") == base.get("hardware_concurrency"):
        print("parallel join best speedup vs baseline:")
        compare("parallel/best_join_speedup",
                cur["best_join_speedup"], base["best_join_speedup"])
    else:
        print("parallel baseline from a different core count "
              f"({base.get('hardware_concurrency')} vs "
              f"{cur.get('hardware_concurrency')}); skipping comparison")

if os.path.exists("BENCH_service.baseline.json"):
    have_baseline = True
    cur = json.load(open("BENCH_service.json"))
    base = json.load(open("BENCH_service.baseline.json"))
    # Loopback QPS is bound by the host's core count; a different machine
    # gets a fresh snapshot, not a failure.
    if cur.get("hardware_concurrency") == base.get("hardware_concurrency"):
        print("service loopback throughput vs baseline:")
        compare("service/qps", cur["qps"], base["qps"])
        if cur.get("dropped_connections", 0) or cur.get("request_errors", 0):
            failures.append("service/errors")
            print("  [FAIL] service/errors: "
                  f"{cur.get('request_errors', 0)} request errors, "
                  f"{cur.get('dropped_connections', 0)} dropped connections")
    else:
        print("service baseline from a different core count "
              f"({base.get('hardware_concurrency')} vs "
              f"{cur.get('hardware_concurrency')}); skipping comparison")

# R21 fused gates are absolute, not baseline-relative: bit-identity and the
# minimum fused-over-per-request speedup hold on any host.
cur = json.load(open("BENCH_fused.json"))
print(f"fused execution gates (min speedup {fused_min_speedup:.2f}x):")
if not cur.get("identical", False):
    failures.append("fused/identical")
    print("  [FAIL] fused/identical: fused responses diverge from "
          "per-request responses")
else:
    print("  [ok] fused/identical: responses bit-identical")
speedup = cur.get("speedup", 0.0)
status = "FAIL" if speedup < fused_min_speedup else "ok"
print(f"  [{status}] fused/speedup: {speedup:.3f}x "
      f"(minimum {fused_min_speedup:.2f}x)")
if speedup < fused_min_speedup:
    failures.append("fused/speedup")
if cur.get("errors", 0):
    failures.append("fused/errors")
    print(f"  [FAIL] fused/errors: {cur['errors']} request errors")
if os.path.exists("BENCH_fused.baseline.json"):
    have_baseline = True
    base = json.load(open("BENCH_fused.baseline.json"))
    # QPS is host-bound; compare only on the same core count.
    if cur.get("hardware_concurrency") == base.get("hardware_concurrency"):
        print("fused throughput vs baseline:")
        compare("fused/qps_fused", cur["qps_fused"], base["qps_fused"])
    else:
        print("fused baseline from a different core count "
              f"({base.get('hardware_concurrency')} vs "
              f"{cur.get('hardware_concurrency')}); skipping comparison")

# R22 planner gates are absolute: routed-exact identity and overhead, the
# recall tier's minimum speedup, and the recall floor hold on any host.
cur = json.load(open("BENCH_planner.json"))
print(f"planner gates (min LSH speedup {planner_min_speedup:.2f}x, "
      f"exact overhead tolerance {planner_exact_tol:.0%}):")
if not cur.get("identical", False):
    failures.append("planner/identical")
    print("  [FAIL] planner/identical: routed-exact responses diverge from "
          "forced ekdb-flat")
else:
    print("  [ok] planner/identical: routed-exact responses bit-identical")
exact_ratio = cur.get("exact_ratio", 0.0)
status = "FAIL" if exact_ratio < 1.0 - planner_exact_tol else "ok"
print(f"  [{status}] planner/exact_ratio: {exact_ratio:.3f} "
      f"(minimum {1.0 - planner_exact_tol:.2f})")
if exact_ratio < 1.0 - planner_exact_tol:
    failures.append("planner/exact_ratio")
lsh_speedup = cur.get("lsh_speedup", 0.0)
status = "FAIL" if lsh_speedup < planner_min_speedup else "ok"
print(f"  [{status}] planner/lsh_speedup: {lsh_speedup:.3f}x "
      f"(minimum {planner_min_speedup:.2f}x)")
if lsh_speedup < planner_min_speedup:
    failures.append("planner/lsh_speedup")
recall_floor = cur.get("recall_target", 0.9) - 0.05
measured_recall = cur.get("measured_recall", 0.0)
status = "FAIL" if measured_recall < recall_floor else "ok"
print(f"  [{status}] planner/measured_recall: {measured_recall:.3f} "
      f"(floor {recall_floor:.2f})")
if measured_recall < recall_floor:
    failures.append("planner/measured_recall")
if cur.get("errors", 0):
    failures.append("planner/errors")
    print(f"  [FAIL] planner/errors: {cur['errors']} request errors")
if os.path.exists("BENCH_planner.baseline.json"):
    have_baseline = True
    base = json.load(open("BENCH_planner.baseline.json"))
    # QPS is host-bound; compare only on the same core count.
    if cur.get("hardware_concurrency") == base.get("hardware_concurrency"):
        print("planner throughput vs baseline:")
        compare("planner/qps_recall", cur["qps_recall"], base["qps_recall"])
        compare("planner/qps_routed", cur["qps_routed"], base["qps_routed"])
    else:
        print("planner baseline from a different core count "
              f"({base.get('hardware_concurrency')} vs "
              f"{cur.get('hardware_concurrency')}); skipping comparison")

# R23 out-of-core gates are absolute: identity, budget, residency, and the
# fault-in floor hold on any host (no baseline needed).
cur = json.load(open("BENCH_outofcore.json"))
print(f"out-of-core gates (min fault-in speedup "
      f"{outofcore_min_speedup:.2f}x):")
for key, label in (("byte_identical", "external build bytes == in-RAM"),
                   ("query_identical", "mapped queries == in-RAM tree"),
                   ("under_budget", "registry bytes_in_use <= budget"),
                   ("resident_ok", "resident set under the budget")):
    ok = cur.get(key, False)
    print(f"  [{'ok' if ok else 'FAIL'}] outofcore/{key}: {label}")
    if not ok:
        failures.append(f"outofcore/{key}")
fault_speedup = cur.get("fault_speedup", 0.0)
status = "FAIL" if fault_speedup < outofcore_min_speedup else "ok"
print(f"  [{status}] outofcore/fault_speedup: {fault_speedup:.1f}x "
      f"(minimum {outofcore_min_speedup:.2f}x)")
if fault_speedup < outofcore_min_speedup:
    failures.append("outofcore/fault_speedup")

# R24 update gates are absolute: drift-timeline identity and the
# steady-state churn ratio hold on any host.
cur = json.load(open("BENCH_updates.json"))
print(f"live-update gates (churn ratio floor {1.0 - updates_tol:.2f}):")
if not cur.get("identical", False):
    failures.append("updates/identical")
    print("  [FAIL] updates/identical: drift-timeline answers diverge from "
          "the rebuild oracle")
else:
    print("  [ok] updates/identical: answers bit-identical to the rebuild "
          "oracle")
ratio = cur.get("ratio", 0.0)
status = "FAIL" if ratio < 1.0 - updates_tol else "ok"
print(f"  [{status}] updates/ratio: {ratio:.3f} "
      f"(floor {1.0 - updates_tol:.2f})")
if ratio < 1.0 - updates_tol:
    failures.append("updates/ratio")
if cur.get("errors", 0):
    failures.append("updates/errors")
    print(f"  [FAIL] updates/errors: {cur['errors']} request errors")
if os.path.exists("BENCH_updates.baseline.json"):
    have_baseline = True
    base = json.load(open("BENCH_updates.baseline.json"))
    # QPS is host-bound; compare only on the same core count.
    if cur.get("hardware_concurrency") == base.get("hardware_concurrency"):
        print("live-update throughput vs baseline:")
        compare("updates/qps_updatable", cur["qps_updatable"],
                base["qps_updatable"])
    else:
        print("updates baseline from a different core count "
              f"({base.get('hardware_concurrency')} vs "
              f"{cur.get('hardware_concurrency')}); skipping comparison")

if os.path.exists("BENCH_obs.baseline.json"):
    have_baseline = True
    cur = json.load(open("BENCH_obs.json"))
    base = json.load(open("BENCH_obs.baseline.json"))
    # Primitive ns/op costs swing far more than any sane relative tolerance
    # run-to-run (a disabled span is sub-ns), so they are gated by absolute
    # ceilings inside bench_r20_obs_overhead itself (it exits non-zero on
    # breach, which fails this script at the run step above).  Here they are
    # reported informationally next to the baseline.
    print("obs primitive costs (gated by absolute ceilings in the bench):")
    for key in ("span_disabled_ns", "counter_add_ns", "gauge_set_ns",
                "histogram_record_ns"):
        print(f"  [info] obs/{key}: {cur.get(key, 0.0):.3g} ns "
              f"(baseline {base.get(key, 0.0):.3g} ns)")

# Metrics-overhead gate: instrumentation cost on the end-to-end hot paths
# must sit within obs_tol of the baseline — a much tighter bound than the
# general regression tolerance, because instrumentation drift is systematic,
# not noise.  It is applied only to signals that are both instrumented and
# stable enough to gate tightly: the R19 loopback QPS (the full service
# request path, per-opcode histograms included) and the R20 tracing-on/off
# join ratio (the per-phase span cost).  The raw SIMD kernels (R12) are
# deliberately excluded: their inner loops carry no instrumentation, and 3%
# is below run-to-run noise there.  Skipped when the host core count differs
# from the baseline's.
obs_failures = []


def obs_compare(name, current, baseline):
    drop = (baseline - current) / baseline if baseline > 0 else 0.0
    status = "FAIL" if drop > obs_tol else "ok"
    print(f"  [{status}] {name}: {current:.3g} vs baseline {baseline:.3g} "
          f"({-drop:+.1%})")
    if drop > obs_tol:
        obs_failures.append(name)


if os.path.exists("BENCH_service.baseline.json"):
    cur = json.load(open("BENCH_service.json"))
    base = json.load(open("BENCH_service.baseline.json"))
    if cur.get("hardware_concurrency") == base.get("hardware_concurrency"):
        print(f"metrics-overhead gate, R19 service (tolerance {obs_tol:.0%}):")
        obs_compare("service/qps", cur["qps"], base["qps"])
if os.path.exists("BENCH_obs.baseline.json"):
    cur = json.load(open("BENCH_obs.json"))
    base = json.load(open("BENCH_obs.baseline.json"))
    # Lower is better for both ratios: growth beyond obs_tol of the
    # baseline means new per-span cost crept into the join hot path —
    # chrome-trace event emission for the first, request-profile node
    # recording (the EXPLAIN ANALYZE / slow-query capture path) for the
    # second.
    for key, label in (("traced_over_plain_ratio", "R20 tracing"),
                       ("profiled_over_plain_ratio", "R20 profiling")):
        ratio_cur = cur.get(key, 0.0)
        ratio_base = base.get(key, 0.0)
        if ratio_cur > 0 and ratio_base > 0:
            growth = (ratio_cur - ratio_base) / ratio_base
            status = "FAIL" if growth > obs_tol else "ok"
            print(f"metrics-overhead gate, {label} (tolerance {obs_tol:.0%}):")
            print(f"  [{status}] obs/{key}: {ratio_cur:.3f} vs "
                  f"baseline {ratio_base:.3f} ({growth:+.1%})")
            if growth > obs_tol:
                obs_failures.append(f"obs/{key}")
if obs_failures:
    failures.extend("obs-gate:" + f for f in obs_failures)

if not have_baseline:
    print("no BENCH_*.baseline.json found; snapshots written. To seed the")
    print("baselines: scripts/check_bench_regression.sh --update-baseline")
    # The absolute gates (fused identity/speedup) apply regardless.
    if failures:
        sys.exit("bench gate failures: " + ", ".join(failures))
    sys.exit(0)

if failures:
    sys.exit("bench regression: " + ", ".join(failures))
print("no bench regressions")
PY
