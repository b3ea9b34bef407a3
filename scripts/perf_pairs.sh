#!/usr/bin/env sh
# Paired benchmark runs: a parent commit against the working tree.
#
# Usage: scripts/perf_pairs.sh PARENT_REF [PAIRS] [WORKLOAD...]
#   (or: make perf-pairs PARENT=ref [PAIRS=n] [WORKLOADS="a b"])
#
# Checks PARENT_REF out into a temporary `git worktree`, then for every
# workload (default: all of BENCHMARK.json) and every seed 1..PAIRS
# (default 10) runs
#
#     python3 -m perf --workload W --seed S --out ...
#
# in both trees — the benchmark's own run length, untraced and traced —
# alternating which side goes first, and hands the two sets of result
# files to `python3 -m perf.compare`: one row per (workload, metric)
# with both medians and quartiles, the ratio, the bound and a verdict.
# Below that it prints what compare does not: who won each same-seed
# pair (choosing-metrics §8 asks for nine of ten), and whether every
# counted metric is identical seed by seed.
#
# Edits nothing tracked.  The result files stay in the directory named
# on the last line; the worktree is removed.  Exit status is compare's:
# 1 when any end-to-end metric regressed beyond its bound.
set -eu

if [ $# -lt 1 ]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
parent_ref=$1
shift
pairs=10
case "${1:-}" in
    ''|*[!0-9]*) ;;
    *) pairs=$1; shift ;;
esac

cd "$(dirname "$0")/.."
root=$(pwd)
if [ $# -gt 0 ]; then
    workloads=$*
else
    workloads=$(python3 -c "
import json
print(' '.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))")
fi

out=$(mktemp -d "${TMPDIR:-/tmp}/perf-pairs.XXXXXX")
parent="$out/parent"
git worktree add --detach --quiet "$parent" "$parent_ref"
trap 'git -C "$root" worktree remove --force "$parent"' EXIT
trap 'exit 130' INT TERM

run() {  # run TREE LABEL WORKLOAD SEED
    (cd "$1" && python3 -m perf --workload "$3" --seed "$4" \
        --out "$out/$2.$3.$4.json" > "$out/$2.$3.$4.log" 2>&1) \
        || { echo "perf failed: see $out/$2.$3.$4.log" >&2; exit 1; }
}

echo "parent $(git rev-parse --short "$parent_ref") vs working tree," \
     "$pairs pairs of: $workloads"
for workload in $workloads; do
    seed=1
    while [ "$seed" -le "$pairs" ]; do
        if [ $((seed % 2)) -eq 1 ]; then
            run "$parent" base "$workload" "$seed"
            run "$root" new "$workload" "$seed"
        else
            run "$root" new "$workload" "$seed"
            run "$parent" base "$workload" "$seed"
        fi
        echo "  $workload seed $seed done"
        seed=$((seed + 1))
    done
done

status=0
python3 -m perf.compare --base "$out"/base.*.json \
    --new "$out"/new.*.json || status=$?

python3 - "$out" <<'EOF'
import glob
import json
import sys
from collections import defaultdict

from perf.names import END_TO_END, PER_LAYER

out = sys.argv[1]
better = {name: direction for name, _, direction, _ in END_TO_END}
exact = {name for name, _, _, source in PER_LAYER if source in "PC"}
wins = defaultdict(lambda: [0, 0, 0])       # new, base, ties
counted = defaultdict(lambda: [0, 0])       # seeds identical, seeds run
for path in sorted(glob.glob(f"{out}/base.*.json")):
    with open(path) as a, open(path.replace("/base.", "/new.")) as b:
        base, new = json.load(a)["runs"], json.load(b)["runs"]
    for old, cur in zip(base, new):
        for name, entry in old["metrics"].items():
            was, now = entry["value"], cur["metrics"][name]["value"]
            key = old["workload"], name
            if not old["trace"]:
                sign = 1 if better[name] == "higher" else -1
                delta = sign * (now - was)
                wins[key][0 if delta > 0 else 1 if delta < 0 else 2] += 1
            elif name in exact:
                counted[key][0] += was == now
                counted[key][1] += 1
print(f"\n{'workload':<19}{'metric':<12}same-seed pairs won: new / base / tied")
for (workload, name), (new, base, tied) in sorted(wins.items()):
    print(f"{workload:<19}{name:<12}{new:>3} /{base:>3} /{tied:>3}")
differing = {key: row for key, row in counted.items() if row[0] != row[1]}
print(f"\ncounted metrics (sources P and C) identical seed by seed: "
      f"{len(counted) - len(differing)} of {len(counted)} rows")
for (workload, name), (same, runs) in sorted(differing.items()):
    print(f"{workload:<19}{name:<32}differs on {runs - same} of {runs}")
EOF

echo "result files: $out"
exit "$status"
