#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build leaves
# behind (binary, Go build cache, the toolchain's own counters) goes under
# .bench_build at the repository root, so the benchmark reads and writes only
# inside its checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/adsmbench" .)
cd "$root"
exec "$build/adsmbench" "$@"
