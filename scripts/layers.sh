#!/usr/bin/env bash
# Where the fault path's wall time goes, by layer. For each of
# BenchmarkCostModel/{FaultRead,FaultWrite,RollingEvict} (internal/core,
# cost_test.go) it takes a CPU profile, reads it with
# `go tool pprof -traces -lines`, charges each sample to the innermost frame
# in a non-test file of the repository, and maps that file to its layer
# through the table in internal/core/layers.txt (a package directory row
# maps all of its files; a "-" layer passes the sample on to its caller).
# A sample with no repository frame counts as runtime/GC.
#
# Only the benchmark's timed window is charged: the samples under the
# window closure that `each` returns (cost_test.go; the awk below matches
# its closure name, each.funcN), plus the samples with
# no repository frame at all (the garbage collector's workers, the
# scheduler). Setup and the resets between windows run off the benchmark's
# clock; their share of all samples is printed and left out. The rows of
# each table sum to 100.0 % (largest-remainder rounding), and the ns/op
# column splits the benchmark's ns/op by the same shares. Each benchmark
# runs for 5 s, the run the table in docs/performance.md was taken at.
#
#   scripts/layers.sh
#   make layers
#
# The test binary and the profiles stay in bin/layers/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
out=$root/bin/layers
mkdir -p "$out"
go test -c -o "$out/core.test" ./internal/core

for bench in FaultRead FaultWrite RollingEvict; do
	(cd internal/core && "$out/core.test" -test.run '^$' -test.benchtime 5s \
		-test.bench "^BenchmarkCostModel/$bench\$" -test.cpuprofile "$out/$bench.prof") >"$out/$bench.txt"
	nsop=$(awk '$1 ~ /^BenchmarkCostModel\// { for (i = 1; i < NF; i++) if ($(i+1) == "ns/op") print $i }' "$out/$bench.txt")
	go tool pprof -traces -lines "$out/core.test" "$out/$bench.prof" 2>/dev/null |
		awk -v bench="$bench" -v nsop="$nsop" -v root="$root/" -v table="$root/internal/core/layers.txt" '
function ms(v) {
	if (v ~ /ns$/) return substr(v, 1, length(v)-2) / 1e6
	if (v ~ /us$/ || v ~ /µs$/) return substr(v, 1, length(v)-2) / 1e3
	if (v ~ /ms$/) return substr(v, 1, length(v)-2) + 0
	if (v ~ /s$/) return substr(v, 1, length(v)-1) * 1e3
	if (v ~ /m$/) return substr(v, 1, length(v)-1) * 6e4
	print "layers: cannot read sample value " v > "/dev/stderr"; exit 2
}
# layerOf returns the layer of a repository file, "" for a test file or a
# file outside the repository.
function layerOf(file, rel, dir) {
	if (index(file, root) != 1 || file ~ /_test\.go$/) return ""
	rel = substr(file, length(root) + 1)
	if (rel in layer) return layer[rel]
	dir = rel
	sub(/[^\/]*$/, "", dir)
	if (dir in layer) return layer[dir]
	print "layers: " rel " has no row in internal/core/layers.txt" > "/dev/stderr"; exit 2
}
function flush(i, l, lay, window, repo) {
	if (n == 0) return
	window = 0; repo = 0; lay = ""
	for (i = 1; i <= n; i++) {
		if (fn[i] ~ /^repro\/internal\/core\..*each\.func[0-9]+$/) window = 1
		if (index(file[i], root) == 1) repo = 1
		if (lay == "" && (l = layerOf(file[i])) != "" && l != "-") lay = l
	}
	total += val
	if (!repo) lay = "runtime/GC"
	else if (!window) { off += val; n = 0; return }
	else if (lay == "") lay = "benchmark loop"
	got[lay] += val
	counted += val
	n = 0
}
BEGIN {
	while ((getline line < table) > 0) {
		if (line ~ /^[ \t]*(#|$)/) continue
		split(line, f, /[ \t]+/)
		l = line
		sub(/^[^ \t]+[ \t]+/, "", l)
		layer[f[1]] = l
	}
}
/^-+\+-+$/ { flush(); inblock = 1; first = 1; next }
!inblock { next }
first {
	val = ms($1)
	sub(/^ *[^ ]+ +/, "")
	first = 0
}
{
	line = $0
	sub(/ \(inline\)$/, "", line)
	sub(/^ +/, "", line)
	path = line
	sub(/.* /, "", path)
	sub(/:[0-9]+$/, "", path)
	name = line
	sub(/ [^ ]+$/, "", name)
	n++
	fn[n] = name
	file[n] = path
}
END {
	flush()
	if (counted == 0) { print "layers: " bench ": no sample in the timed window" > "/dev/stderr"; exit 2 }
	# Largest-remainder rounding to tenths, so the printed rows sum to 100.0.
	left = 1000
	k = 0
	for (l in got) {
		k++
		key[k] = l
		exact = got[l] * 1000 / counted
		tenth[l] = int(exact)
		rem[l] = exact - tenth[l]
		left -= tenth[l]
	}
	for (; left > 0; left--) {
		best = ""
		for (l in got) if (best == "" || rem[l] > rem[best]) best = l
		tenth[best]++
		rem[best] = -1
	}
	# Rows by share, largest first.
	for (i = 1; i <= k; i++)
		for (j = i + 1; j <= k; j++)
			if (tenth[key[j]] > tenth[key[i]] || tenth[key[j]] == tenth[key[i]] && key[j] < key[i]) {
				t = key[i]; key[i] = key[j]; key[j] = t
			}
	printf "%s: %s ns/op, %.2f s of samples charged (%.1f %% of all; setup and resets, %.1f %%, left out)\n",
		bench, nsop, counted / 1e3, 100 * counted / total, 100 * off / total
	printf "  %-18s %7s %9s\n", "layer", "share", "ns/op"
	sum = 0
	for (i = 1; i <= k; i++) {
		printf "  %-18s %6.1f%% %9.1f\n", key[i], tenth[key[i]] / 10, nsop * tenth[key[i]] / 1000
		sum += tenth[key[i]]
	}
	printf "  %-18s %6.1f%% %9.1f\n", "total", sum / 10, nsop
}'
done
