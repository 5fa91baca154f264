#!/usr/bin/env bash
# Go line counts per package, at a base revision and in the working tree:
# non-test code, _test.go files and files under testdata/ (counted for the
# package that owns the testdata directory), each with its difference. Only
# packages whose counts differ get a row; the totals and the net non-test
# difference cover every package.
#
#   scripts/loc.sh [BASE]
#   make loc BASE=HEAD~1
#
# BASE defaults to HEAD. It is read with `git ls-tree` and `git show`; the
# working tree is every tracked or untracked, not ignored .go file that
# exists. Nothing is written, in .git or elsewhere.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
base=${1:-HEAD}
if ! git rev-parse --verify -q "$base^{commit}" >/dev/null; then
	echo "loc: unknown revision $base" >&2
	exit 2
fi

{
	git ls-tree -r --name-only "$base" | grep '\.go$' | while IFS= read -r f; do
		printf 'base %s %d\n' "$f" "$(git show "$base:$f" | wc -l)"
	done
	git ls-files --cached --others --exclude-standard -- '*.go' | sort -u | while IFS= read -r f; do
		[ -f "$f" ] && printf 'work %s %d\n' "$f" "$(wc -l <"$f")"
	done
} | awk -v base="$base" '
function pkgof(path, i) {
	if ((i = index(path, "/testdata/")) > 0) return substr(path, 1, i - 1)
	if (path ~ /^testdata\//) return "."
	if ((i = match(path, /\/[^\/]*$/)) > 0) return substr(path, 1, i - 1)
	return "."
}
function kindof(path) {
	if (path ~ /(^|\/)testdata\//) return "testdata"
	if (path ~ /_test\.go$/) return "test"
	return "code"
}
{
	p = pkgof($2); k = kindof($2)
	n[$1, p, k] += $3; tot[$1, k] += $3; pkgs[p] = 1
}
END {
	split("code test testdata", kinds, " ")
	printf "0\t\t%-40s%23s%23s%23s\n", "Go lines: " base " -> working tree", "non-test", "test", "testdata"
	printf "0\t\t%-40s%23s%23s%23s\n", "", "base    work   diff", "base    work   diff", "base    work   diff"
	for (p in pkgs) {
		row = ""; differs = 0
		for (x = 1; x <= 3; x++) {
			k = kinds[x]; b = n["base", p, k] + 0; w = n["work", p, k] + 0
			if (b != w) differs = 1
			row = row sprintf(" %7d %7d %+6d", b, w, w - b)
		}
		if (differs) printf "1\t%s\t%-40s%s\n", p, p, row
	}
	row = ""
	for (x = 1; x <= 3; x++) {
		k = kinds[x]; b = tot["base", k] + 0; w = tot["work", k] + 0
		row = row sprintf(" %7d %7d %+6d", b, w, w - b)
	}
	printf "2\t\t%-40s%s\n", "total", row
	printf "3\t\tnet non-test Go: %+d lines\n", tot["work", "code"] - tot["base", "code"]
}' | sort -s -t "$(printf '\t')" -k1,1n -k2,2 | cut -f3-
