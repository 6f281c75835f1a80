#!/usr/bin/env bash
# Parent/change pairs: runs the benchmark on a parent commit and on this
# checkout (uncommitted edits included), alternating which side goes
# first, and holds the change to BENCHMARK.json's bounds.
#
#   scripts/pairs.sh <parent-ref> [FIRST-LAST] [--workload W]   (seeds 1-10 by default)
#
# The parent's committed files are exported into a temporary directory,
# removed on exit. Each side builds and runs through its own
# benchmark/run.sh, with --trace 0; odd seeds run the parent first. Raw
# results go to target/pairs/. For every workload and end-to-end metric
# it prints both medians, the change's shift, the pairs the change won
# (ties count for neither side), the parent's spread (quartile distance
# over its median) and a verdict, then each side's incorrect runs and
# failed operations. Exit code 1 if a run is incorrect, the change fails
# more operations than the parent, a median is worse than the parent's by
# more than the metric's bound, or a metric is worse in nine pairs in ten
# by more than the parent's spread.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
usage() {
  echo "usage: scripts/pairs.sh <parent-ref> [FIRST-LAST] [--workload W]" >&2
  exit 2
}
parent_ref="" seeds="1-10"
workloads=(sec7_mix filters400_scatter update_storm range_sharded)
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) [ $# -ge 2 ] || usage; workloads=("$2"); shift 2 ;;
    [0-9]*-[0-9]*) seeds="$1"; shift ;;
    -*) usage ;;
    *) [ -z "$parent_ref" ] || usage; parent_ref="$1"; shift ;;
  esac
done
[ -n "$parent_ref" ] || usage
first="${seeds%-*}" last="${seeds#*-}"
commit="$(git rev-parse --verify "$parent_ref^{commit}")"
parent="$(mktemp -d)"
trap 'rm -rf "$parent"' EXIT
git archive "$commit" | tar -x -C "$parent"
# Each side builds into its own benchmark/target.
unset CARGO_TARGET_DIR
out=target/pairs
rm -rf "$out"
mkdir -p "$out"
run() { # side, checkout, workload, seed
  echo "pairs: $1, $3, seed $4" >&2
  (cd "$2" && bash benchmark/run.sh --workload "$3" --seed "$4" --trace 0) | tail -n 1 >"$out/$1-$3-$4.json"
}
for seed in $(seq "$first" "$last"); do
  for w in "${workloads[@]}"; do
    if ((seed % 2)); then
      run parent "$parent" "$w" "$seed"
      run change . "$w" "$seed"
    else
      run change . "$w" "$seed"
      run parent "$parent" "$w" "$seed"
    fi
  done
done
python3 - "$out" "$first" "$last" "${workloads[@]}" <<'PY'
import json, statistics, sys
out, first, last, workloads = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
seeds = range(first, last + 1)
spec = json.load(open("BENCHMARK.json"))

def spread(v, med):
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return (q[2] - q[0]) / med if med else 0.0

breaches = 0
for w in workloads:
    runs = {s: [json.load(open(f"{out}/{s}-{w}-{i}.json")) for i in seeds] for s in ("parent", "change")}
    print(f"\n{w}\n")
    print("| metric | parent med | change med | shift % | wins | pIQR % | verdict |")
    print("|---|---|---|---|---|---|---|")
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        pm, cm = statistics.median(p), statistics.median(c)
        shift = (cm - pm) / pm if pm else 0.0
        worse = shift if lower else -shift
        piqr = spread(p, pm)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        losses = sum((b > a) if lower else (b < a) for a, b in zip(p, c))
        if p == c:
            verdict = "identical"
        elif worse > bound:
            verdict = "WORSE beyond bound"
        elif losses >= 0.9 * len(p) and worse > piqr:
            verdict = "WORSE"
        elif wins >= 0.9 * len(p) and -worse > piqr:
            verdict = "better"
        elif name != "setup_s" and max(piqr, spread(c, cm)) > bound:
            verdict = "unresolved (spread beyond bound)"
        else:
            verdict = "inside bound"
        breaches += verdict.startswith("WORSE")
        print(f"| `{name}` | {pm:.4g} | {cm:.4g} | {shift:+.2%} | {wins}/{len(p)} | {piqr:.1%} | {verdict} |")
    incorrect = {s: sum(not r["correct"] for r in rs) for s, rs in runs.items()}
    failed = {s: sum(r["failed"] for r in rs) for s, rs in runs.items()}
    ok = not any(incorrect.values()) and failed["change"] <= failed["parent"]
    breaches += not ok
    print(f"| failed ops | {failed['parent']} | {failed['change']} | | | | "
          f"incorrect runs: {incorrect['parent']} parent, {incorrect['change']} change"
          f"{'' if ok else ' — BREACH'} |")
print("\npairs:", "PASS" if not breaches else f"{breaches} BREACH(ES)")
sys.exit(1 if breaches else 0)
PY
