#!/usr/bin/env bash
# Interleaved contract pairs: the benchmark harness (bench/run.sh) built at
# a base commit against the same harness built from the working tree, on one
# workload. Pair i runs both sides back to back, the base first in even
# pairs and the working tree first in odd ones, so a slow spell of the host
# lands on both sides alike. It then prints each pair's METRIC, how many
# pairs the working tree won (read lower), each side's median and
# quartiles, and whether the claim rule of the choosing-metrics guide
# holds: at least 9 wins in 10 pairs, and the medians further apart than
# the base's interquartile range.
#
#   scripts/benchpairs.sh [BASE [N [WORKLOAD [SECONDS [SEED [METRIC]]]]]]
#   make bench-pairs BASE=HEAD~1 N=10 WORKLOAD=fault-storm SEED=7 METRIC=access_p50_us
#
# Defaults: BASE=HEAD N=10 WORKLOAD=kernel-loop SECONDS=20 SEED=5
# METRIC=wall_s; METRIC names a lower-is-better metric of the contract
# line (wall_s, setup_s, access_p50_us, access_p99_us, peak_rss_mb). Every
# pair uses the one seed, so the simulated metrics (virt_s, pcie_bytes,
# ok_ops_ratio) must be equal on both sides; a pair where they differ is
# reported. Each run's contract line is kept in OUT (environment; default
# a temporary directory, removed at exit). The base is a `git archive` of
# BASE in a temporary directory; nothing in the working tree but the
# harness's own build directory is written.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
base=${1:-HEAD}
n=${2:-10}
workload=${3:-kernel-loop}
seconds=${4:-20}
seed=${5:-5}
metric=${6:-wall_s}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out=${OUT:-$tmp/runs}
mkdir -p "$tmp/base" "$out"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
echo "base $(git -C "$root" rev-parse --short "$base") vs working tree: $workload, $n pairs, --seconds $seconds --seed $seed, $metric" >&2

# run SIDE DIR I: one contract run, its last line saved as OUT/SIDE-I.json.
run() {
	bash "$2/bench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
		tail -n 1 >"$out/$1-$3.json"
}

for ((i = 0; i < n; i++)); do
	if ((i % 2 == 0)); then
		run base "$tmp/base" "$i"
		run head "$root" "$i"
	else
		run head "$root" "$i"
		run base "$tmp/base" "$i"
	fi
	echo "pair $i done" >&2
done

python3 - "$out" "$n" "$metric" <<'EOF'
import json, statistics, sys

out, n, metric = sys.argv[1], int(sys.argv[2]), sys.argv[3]
exact = ("virt_s", "pcie_bytes", "ok_ops_ratio")
load = lambda side, i: json.load(open(f"{out}/{side}-{i}.json"))
base, head, wins = [], [], 0
print(f"pair  first  base {metric}  head {metric}  change")
for i in range(n):
    b, h = load("base", i), load("head", i)
    bv, hv = b["metrics"][metric]["value"], h["metrics"][metric]["value"]
    base.append(bv)
    head.append(hv)
    wins += hv < bv
    notes = [f"{k} differs" for k in exact if b["metrics"][k]["value"] != h["metrics"][k]["value"]]
    notes += [f"{s} not correct" for s, r in (("base", b), ("head", h)) if not r["correct"] or r["failed"]]
    print(f"{i:4}  {'base' if i % 2 == 0 else 'head':5}  {bv:12.6g}  {hv:12.6g}  {100 * (hv - bv) / bv:+6.1f} %  {' '.join(notes)}")

def quart(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]

bq, hq = quart(base), quart(head)
iqr = bq[2] - bq[0]
print(f"base  median {bq[1]:.6g}  quartiles {bq[0]:.6g} .. {bq[2]:.6g}  (IQR {iqr:.6g})")
print(f"head  median {hq[1]:.6g}  quartiles {hq[0]:.6g} .. {hq[2]:.6g}")
print(f"head lower in {wins}/{n} pairs; median {100 * (hq[1] - bq[1]) / bq[1]:+.1f} %")
met = wins * 10 >= 9 * n and bq[1] - hq[1] > iqr
print(f"claim rule (>= 9/10 wins, median gap > base IQR): {'met' if met else 'not met'}")
EOF
