GO ?= go
FUZZTIME ?= 30s

.PHONY: all check fmt vet vet-json build build-fallback test race bench-selftest bench bench-micro bench-contended bench-conformance bench-pairs loc profile smoke fuzz chaos record-corpus corpus-diff clean FORCE

all: check

# The CI gate: formatting, static checks, build (and the cross-build of the
# platform fallback), and the race-enabled suite.
check: fmt vet build build-fallback race

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static analysis: the standard go vet suite, then adsmvet — the ADSM
# multichecker (allowcheck, lockorder, noalloc, statecase; see
# docs/static-analysis.md) — driven through
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
# to the unbatched oracle on every workload, replay round trip, the sharded
# registry/MMU lane stress, the MMU's lock-free access check, the registry's
# writer-side publish, recycled host memory (whose page bitmap is written on
# the access path), the owed pages every fetch leaves for the host to
# copy on first touch, with the copy ruler that counts those copies, and
# the word-at-a-time page bitmaps, masked write-backs and protection fills
# against their per-page references (device memory is a heap slice here,
# so the huge-page advice test, which needs an OS mapping, is not run).
bench-conformance:
	$(GO) test -race -count=1 -run 'Batching' ./internal/workloads
	$(GO) test -race -count=1 \
		-run 'TestRegistryConcurrentLanes|TestIndexRebuildStorm|TestRegShardMask|TestMMUConcurrentLanes|TestCheckTakesNoShardLock|TestCheckBesideNeighbourMaps|SpanFaultBatching|TestLookupAfterChurnBuildsNoClone|TestFreedBytesNeverReappear|TestConcurrentChurnReadsZeros|TestRecycledSpaceReadsZeros|TestUnmapClosesSpace|TestPoolBound|TestFreedObjectViewsReadZeros|TestOwedPagesMatchFlatModel|TestBatchDeviceLostKeepsAcquiredBytes|TestBatchInjectedLossPullsOwedPages|TestPullAfterClose|TestOwedBeforeArming|TestArmedEvictionPullsOwedPages|TestBulkAndPeerReadOwedBlocks|TestCopyBudget|TestPageBitmapsAgainstPerBit|TestMaskedH2DLandsSelectedRuns|TestMprotectFillsExactRange' \
		./internal/core ./internal/accel ./internal/hostmmu ./internal/mem ./gmac

# Interleaved contract pairs of the harness at BASE against the working
# tree: per-pair values, wins, medians and quartiles, and whether a claimed
# gain in METRIC (a lower-is-better contract metric, default wall_s) passes
# the 9-of-10 / median-gap-over-IQR rule (scripts/benchpairs.sh).
BASE ?= HEAD
N ?= 10
WORKLOAD ?= kernel-loop
SECONDS ?= 20
SEED ?= 5
METRIC ?= wall_s
bench-pairs:
	bash scripts/benchpairs.sh $(BASE) $(N) $(WORKLOAD) $(SECONDS) $(SEED) $(METRIC)

# A CPU profile of `gmacbench EXP` at evaluation scale (EXP=all, or one
# experiment: fig8 is the Parboil evaluation sweep), printed as a pprof
# table; PPROF picks the table (e.g. PPROF='-top -cum'). The binary and
# the profile stay in bin/.
EXP ?= all
PPROF ?= -top -nodecount=30
profile:
	$(GO) build -o bin/gmacbench ./cmd/gmacbench
	./bin/gmacbench -cpuprofile bin/cpu.prof $(EXP) >/dev/null
	$(GO) tool pprof $(PPROF) bin/gmacbench bin/cpu.prof

# Go line counts per package at BASE and in the working tree (non-test,
# test and testdata), with the net non-test difference (scripts/loc.sh).
loc:
	bash scripts/loc.sh $(BASE)

# Fast end-to-end sanity: one small figure run with the JSON summary, then
# the four examples, the only gmac callers no test runs. Each exits non-zero
# on an error; quickstart, multigpu and stencil3d also on a wrong result
# (mri's workload is checked against CUDA by TestChecksumEquality).
EXAMPLES = quickstart mri multigpu stencil3d
smoke:
	$(GO) run ./cmd/gmacbench -small -json /tmp/gmacbench-smoke.json fig8
	for e in $(EXAMPLES); do echo "== examples/$$e"; $(GO) run ./examples/$$e || exit 1; done

# Native fuzzing of the registry's span set and block lookup, the manager op
# stream, the oplog wire decoder, the race analyser, and the MMU's page
# table, FUZZTIME per target
# (see docs/testing.md). The decoder and race-check fuzzers seed from the
# recorded corpus in testdata/corpus/.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSpanSet$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzBlockAt$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzManagerOps$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzOpLogDecode$$' -fuzztime $(FUZZTIME) ./internal/oplog
	$(GO) test -run '^$$' -fuzz '^FuzzRaceCheck$$' -fuzztime $(FUZZTIME) ./internal/racecheck
	$(GO) test -run '^$$' -fuzz '^FuzzPageTable$$' -fuzztime $(FUZZTIME) ./internal/hostmmu

# Re-record the workload op-stream corpus (testdata/corpus/*.oplog): one
# stream per (small Parboil workload, GMAC protocol). The chaos suite
# replays these under fault schedules, and the oplog decoder fuzzer seeds
# from them. Regenerate after changing the wire format or the workloads,
# and commit the result.
record-corpus:
	$(GO) run ./cmd/gmacbench -small -record testdata/corpus

# Record the corpus at BASE and from the working tree into temporary
# directories and cmp them stream by stream (scripts/corpusdiff.sh); the
# committed corpus is only compared, never written.
corpus-diff:
	bash scripts/corpusdiff.sh $(BASE)

# The chaos conformance suite under the race detector: fault-schedule
# matrix, replay determinism, degraded-mode recovery, I/O fault paths.
chaos:
	$(GO) test -race -count=1 ./internal/fault/
	$(GO) test -race -count=1 -run 'Chaos|Fault|Inject|DeviceLost|Degrade' ./...

clean:
	$(GO) clean ./...
	rm -rf bin
