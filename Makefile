GO ?= go
FUZZTIME ?= 30s

.PHONY: all check fmt vet vet-json build build-fallback test race bench-selftest bench bench-micro bench-contended bench-conformance smoke fuzz chaos record-corpus clean FORCE

all: check

# The CI gate: formatting, static checks, build (and the cross-build of the
# platform fallback), and the race-enabled suite.
check: fmt vet build build-fallback race

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static analysis: the standard go vet suite, then adsmvet — the ADSM
# multichecker (allowcheck, coherence, lanepair, lockorder, modecheck,
# noalloc, statecase; see docs/static-analysis.md) — driven through
# `go vet -vettool` so every package, its _test.go files, and the cmd/
# mains are analyzed, and results land in the build cache (keyed on the
# tool's -V=full version, which folds in the Go toolchain version, so a
# Go upgrade invalidates them along with the rebuilt tool). Any
# diagnostic fails the build. `make vet-json` writes the machine-readable
# report CI archives as an artifact.
vet: bin/adsmvet
	$(GO) vet ./...
	$(GO) vet -vettool=$(abspath bin/adsmvet) ./...

vet-json: bin/adsmvet
	./bin/adsmvet -json ./... > adsmvet.json || true
	@echo wrote adsmvet.json

bin/adsmvet: FORCE
	$(GO) build -o bin/adsmvet ./cmd/adsmvet

FORCE:

build:
	$(GO) build ./...

# Device memory is an OS mapping on unix and a heap slice elsewhere
# (internal/mem/lazy_heap.go, also what -race builds use). No CI machine is
# "elsewhere", so cross-compile for one; it needs only GOROOT.
build-fallback:
	GOOS=windows GOARCH=amd64 $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench/ is a nested module (BENCHMARK.json's harness) that `./...` does
# not reach: vet and test it against this checkout's packages.
bench-selftest:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Wall-clock ns/op of the fault-path scenarios TestCostModel pins exactly
# (internal/core/cost_test.go) and of the registry lookup, repeated so
# benchstat can tell noise from signal.
bench-micro:
	$(GO) test -bench 'BenchmarkCostModel|BenchmarkBlockLookup' -skip 'BenchmarkCostModel/ContendedFaults' \
		-benchmem -benchtime=100x -count=3 -run '^$$' ./internal/core

# The contended-lane sweep: N host lanes faulting on disjoint objects
# through the sharded registry/MMU. Run without -race (the detector's
# overhead drowns the wall-clock signal; the -race interleaving coverage
# lives in bench-conformance).
bench-contended:
	$(GO) test -bench 'BenchmarkCostModel/ContendedFaults' \
		-benchmem -benchtime=100x -count=3 -run '^$$' ./internal/core

# The conformance suite under the race detector: batched runs byte-identical
# to the unbatched oracle on every workload, replay round trip, and the
# sharded registry/MMU lane stress.
bench-conformance:
	$(GO) test -race -count=1 -run 'Batching' ./internal/workloads
	$(GO) test -race -count=1 \
		-run 'TestRegistryConcurrentLanes|TestIndexRebuildStorm|TestRegShardMask|TestMMUConcurrentLanes|SpanFaultBatching' \
		./internal/core ./internal/hostmmu

# Fast end-to-end sanity: one small figure run with the JSON summary.
smoke:
	$(GO) run ./cmd/gmacbench -small -json /tmp/gmacbench-smoke.json fig8

# Native fuzzing of the registry's span set, the manager op stream, the oplog
# wire decoder, and the race analyser, FUZZTIME per target (see
# docs/testing.md). The decoder and race-check fuzzers seed from the
# recorded corpus in testdata/corpus/.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSpanSet$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzManagerOps$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzOpLogDecode$$' -fuzztime $(FUZZTIME) ./internal/oplog
	$(GO) test -run '^$$' -fuzz '^FuzzRaceCheck$$' -fuzztime $(FUZZTIME) ./internal/racecheck

# Re-record the workload op-stream corpus (testdata/corpus/*.oplog): one
# stream per (small Parboil workload, GMAC protocol). The chaos suite
# replays these under fault schedules, and the oplog decoder fuzzer seeds
# from them. Regenerate after changing the wire format or the workloads,
# and commit the result.
record-corpus:
	$(GO) run ./cmd/gmacbench -small -record testdata/corpus

# The chaos conformance suite under the race detector: fault-schedule
# matrix, replay determinism, degraded-mode recovery, I/O fault paths.
chaos:
	$(GO) test -race -count=1 ./internal/fault/
	$(GO) test -race -count=1 -run 'Chaos|Fault|Inject|DeviceLost|Degrade' ./...

clean:
	$(GO) clean ./...
	rm -rf bin
