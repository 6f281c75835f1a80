#!/usr/bin/env bash
# A/A check: runs the same build twice over the same seeds and holds the
# benchmark to its own bounds, the way the driver does.
#
#   benchmark/aa.sh [RUNS_PER_SET]        (default 3; the driver uses 10)
#
# For every workload and end-to-end metric it prints, per set, the spread
# (first to third quartile as a share of the median, over seeds) and the
# shift of set B's median against set A's, each next to the metric's bound.
# Exit code 1 if a spread exceeds its bound (setup_s excepted, as in the
# driver) or set B's median is worse than set A's by more than the bound.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
runs="${1:-3}"
out=benchmark/out/aa
rm -rf "$out"
mkdir -p "$out"
workloads=(sec7_mix filters400_scatter update_storm range_sharded)
for set in A B; do
  for w in "${workloads[@]}"; do
    for seed in $(seq 1 "$runs"); do
      echo "aa: set $set, $w, seed $seed" >&2
      benchmark/run.sh --workload "$w" --seed "$seed" --trace 0 | tail -n 1 >"$out/$set-$w-$seed.json"
    done
  done
done
python3 - "$out" "$runs" "${workloads[@]}" <<'PY'
import json, statistics, sys
out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))
breaches = 0
print(f"{'workload':<20}{'metric':<26}{'bound':>7}{'spread A':>10}{'spread B':>10}{'B vs A':>9}")
for w in workloads:
    sets = {s: [json.load(open(f"{out}/{s}-{w}-{i}.json")) for i in range(1, runs + 1)] for s in "AB"}
    for s, results in sets.items():
        bad = [r for r in results if not r["correct"] or r["failed"]]
        if bad:
            print(f"{w}: set {s} has {len(bad)} incorrect run(s)")
            breaches += 1
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        med, spread = {}, {}
        for s, results in sets.items():
            v = [r["metrics"][name]["value"] for r in results]
            med[s] = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            spread[s] = (q[2] - q[0]) / med[s] if med[s] else 0.0
        shift = (med["B"] - med["A"]) / med["A"] if med["A"] else 0.0
        worse = shift if lower else -shift
        flags = ""
        if name != "setup_s" and max(spread.values()) > bound:
            flags += " SPREAD"
        if worse > bound:
            flags += " SHIFT"
        breaches += bool(flags)
        print(f"{w:<20}{name:<26}{bound:>7.1%}{spread['A']:>10.2%}{spread['B']:>10.2%}{shift:>+9.2%}{flags}")
print("A/A:", "PASS" if not breaches else f"{breaches} BREACH(ES)")
sys.exit(1 if breaches else 0)
PY
