#!/usr/bin/env bash
# Corpus check: records the workload op-stream corpus (gmacbench -small
# -record, what `make record-corpus` writes to testdata/corpus/) at a base
# commit and from the working tree, each into a temporary directory, and
# compares the two recordings stream by stream with cmp. It also reports how
# many committed streams differ from the working tree's recording. Nothing
# in the working tree is written; the committed corpus is left as it is.
#
#   scripts/corpusdiff.sh [BASE]
#   make corpus-diff BASE=HEAD~1
#
# BASE defaults to HEAD. Exits 1 if any stream differs between BASE and the
# working tree (a stream present on one side only counts as differing), 2
# if a recording fails.
# The base is a `git archive` of BASE in a temporary directory.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
base=${1:-HEAD}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/src"
git -C "$root" archive "$base" | tar -x -C "$tmp/src"
# record SIDE DIR: the corpus recorded from the source in DIR, into tmp/SIDE.
record() {
	(cd "$2" && go run ./cmd/gmacbench -small -record "$tmp/$1") >"$tmp/$1.log" 2>&1 ||
		{ cat "$tmp/$1.log" >&2; exit 2; }
}
record base "$tmp/src"
record head "$root"

differ=0 n=0 committed=0
for name in $( (ls "$tmp/base"; ls "$tmp/head") | sort -u); do
	n=$((n + 1))
	if ! cmp -s "$tmp/base/$name" "$tmp/head/$name"; then
		echo "differs: $name" >&2
		differ=$((differ + 1))
	fi
	if ! cmp -s "$root/testdata/corpus/$name" "$tmp/head/$name"; then
		committed=$((committed + 1))
	fi
done
echo "base $(git -C "$root" rev-parse --short "$base") vs working tree: $differ of $n recorded streams differ"
echo "testdata/corpus: $committed of $n committed streams differ from the working tree's recording"
((differ == 0))
