#!/usr/bin/env bash
# Runs N rounds of two alternating full sets, A and B, of the end-to-end
# benchmark (every workload, a fresh seed per run), then prints each set's
# median and quartiles per (metric, workload).  It flags a spread (quartile
# distance over median) wider than the metric's bound in BENCHMARK.json,
# and a set-B median worse than set A's by more than the bound.
#
#   benchmark/repeat.sh N [extra run.sh flags]
#
# Results are kept under build-bench/repeat/.  Exits 1 when anything is
# flagged.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
rounds="${1:?usage: benchmark/repeat.sh N [run.sh flags]}"
shift
out=build-bench/repeat
rm -rf "$out"
mkdir -p "$out"

for ((i = 1; i <= rounds; i++)); do
  if ((i % 2 == 1)); then order="A B"; else order="B A"; fi
  for set in $order; do
    for w in point scan selfjoin churn; do
      if [[ "$set" == A ]]; then seed=$((100 + i)); else seed=$((200 + i)); fi
      bash benchmark/run.sh --workload "$w" --seed "$seed" --trace 0 "$@" \
        2>>"$out/build.log" | tail -n 1 > "$out/$set-$w-$i.json"
      echo "round $i set $set $w seed $seed done" >&2
    done
  done
done

python3 - "$out" <<'EOF'
import glob, json, os, statistics, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
bad = False
print(f"{'workload':9} {'metric':13} {'set':3} {'q1':>12} {'median':>12} "
      f"{'q3':>12} {'spread':>7} {'bound':>6}  flags")
for w in [x["name"] for x in spec["workloads"]]:
    for m in spec["end_to_end"]:
        medians = {}
        for s in ("A", "B"):
            vals = []
            for f in sorted(glob.glob(os.path.join(out, f"{s}-{w}-*.json"))):
                r = json.load(open(f))
                if not r["correct"] or r["failed"]:
                    print(f"{f}: run reported failures")
                    bad = True
                vals.append(r["metrics"][m["name"]]["value"])
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            medians[s] = med
            spread = (q3 - q1) / med if med else float("inf")
            flags = []
            if spread > m["bound"] and m["name"] != "setup_s":
                flags.append("SPREAD>BOUND")
            if s == "B" and "A" in medians:
                a, b = medians["A"], med
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                if worse > m["bound"]:
                    flags.append(f"B-WORSE-{worse:.1%}")
            bad = bad or bool(flags)
            print(f"{w:9} {m['name']:13} {s:3} {q1:12.6g} {med:12.6g} "
                  f"{q3:12.6g} {spread:7.2%} {m['bound']:6.0%}  "
                  f"{' '.join(flags)}")
sys.exit(1 if bad else 0)
EOF
