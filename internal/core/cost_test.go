package core

import (
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// The fault-path cost model, pinned exactly. The paper prices ADSM by events
// it can count — faults, DMA transfers and their bytes, the §5.2 search — and
// in this simulator those counts and the virtual time they charge are
// deterministic. So each scenario below runs a fixed number of operations on
// newRig's testbed and asserts, with ==, the window's coherence counters, its
// virtual time and its heap allocations. BenchmarkCostModel runs the same
// table for wall-clock ns/op.
//
// After an intentional change to the cost model, run
//
//	go test -run TestCostModel ./internal/core
//
// and copy each case's printed "got" into its want: the diff of this table
// is the recorded change (docs/performance.md, "Cost pins").

// cost is what one scenario window is pinned to.
type cost struct {
	Faults, FaultBatches, Prefetched int64
	XfersH2D, BytesH2D               int64
	XfersD2H, BytesD2H               int64
	Evictions                        int64
	Virt                             sim.Time
	// Mallocs is the window's raw runtime.MemStats.Mallocs delta. It is
	// stricter than testing.AllocsPerRun, whose integer per-run average
	// rounds one allocation in 32 operations down to zero.
	Mallocs int64
}

func costOf(st Stats, virt sim.Time, mallocs int64) cost {
	return cost{
		Faults: st.Faults, FaultBatches: st.FaultBatches, Prefetched: st.PrefetchedBlocks,
		XfersH2D: st.TransfersH2D, BytesH2D: st.BytesH2D,
		XfersD2H: st.TransfersD2H, BytesD2H: st.BytesD2H,
		Evictions: st.Evictions, Virt: virt, Mallocs: mallocs,
	}
}

// costCase is one scenario: setup prepares a rig and returns window, which
// performs the first n (≤ ops) operations of a window, and reset, which
// re-arms the state for the next window.
type costCase struct {
	name  string
	cfg   Config
	ops   int
	setup func(tb testing.TB, r *rig) (window func(n int), reset func())
	want  cost
}

// laneMallocs leaves a window's allocations unpinned. Only the contended
// cases use it: with a lane active, every clock read finds its lane by
// goroutine id, and sim.goid's runtime.Stack buffer escapes to the heap
// (sim/lane.go, ROADMAP item 1), about nine allocations per fault; the
// sync.Map lookup itself does not allocate. How many more the goroutines
// take varies from run to run.
const laneMallocs = -1

const (
	// sweepBlocks is the object the fault sweeps walk: 64 MiB of 4 KiB blocks.
	sweepBlocks = 16 << 10
	// laneBlocks is each contended lane's object: 1 MiB, one registry
	// granule, so the lanes' objects land in different registry and
	// page-table shards.
	laneBlocks = 256
)

var costCases = []costCase{
	// One read fault per operation, span batching off: signal, lookup,
	// Invalid→ReadOnly with a one-block fetch, mprotect.
	{name: "FaultRead", cfg: unbatched(costCfg(sweepBlocks)), ops: sweepBlocks, setup: readSweep,
		want: cost{Faults: 16384, XfersD2H: 16384, BytesD2H: 64 << 20, Virt: 289_778_872}},
	// The same sweep batched: the streak detector climbs 1→2→4→8→16 and then
	// takes one fault and one DMA per 16 blocks (4 + 1024 faults).
	{name: "StreamingFaults", cfg: costCfg(sweepBlocks), ops: sweepBlocks, setup: readSweep,
		want: cost{Faults: 1028, FaultBatches: 1026, Prefetched: 15356, XfersD2H: 1028, BytesD2H: 64 << 20, Virt: 29_478_786}},
	// One ReadOnly→Dirty write fault per operation; the rolling cache holds
	// every block, so nothing evicts.
	{name: "FaultWrite", cfg: costCfg(sweepBlocks + 1), ops: sweepBlocks, setup: writeSweep,
		want: cost{Faults: 16384, Virt: 48_393_400}},
	// Round-robin writes through a 32-block rolling cache: every write faults
	// and evicts one block, and evictions coalesce into 16-block DMAs.
	{name: "RollingEvict", cfg: costCfg(32), ops: 1 << 10, setup: rollingEvict,
		want: cost{Faults: 1024, XfersH2D: 64, BytesH2D: 4 << 20, Evictions: 1024, Virt: 2_984_400}},
	// Reads of a sealed read-only object: no fault, no transition, no DMA.
	{name: "ReadOnlyFault", cfg: costCfg(0), ops: 1 << 10, setup: sealedReads,
		want: cost{}},
	// A 64-block object alternating 16 calls that dirty every block with 16
	// that read one, each call annotated as writing it: the kernel boundary
	// under a churning write set. The boundary allocates, not the faults:
	// per call two registry.snapshot copies in the release walk and two in
	// resolveHints, plus the rolling-cache drain's copy on each call of a
	// writing phase, 4.5 a call. (The launch's retry closure made a fifth
	// until the launch looped on retryStep inline.)
	{name: "KernelBoundary", cfg: costCfg(0), ops: 1 << 10, setup: boundaryChurn,
		want: cost{Faults: 33280, FaultBatches: 3312, Prefetched: 28912, XfersH2D: 16384, BytesH2D: 128 << 20,
			XfersD2H: 4608, BytesD2H: 137_297_920, Evictions: 31744, Virt: 282_279_008, Mallocs: 4608}},
	// N lanes write-fault through their own objects at once. Every lane's
	// 256 faults take 730 100 ns on its own timeline and the lanes overlap,
	// so the window takes one lane's time and N lanes fault N times as fast.
	{name: "ContendedFaults/1lane", cfg: costCfg(laneBlocks + 1), ops: laneBlocks, setup: contended(1),
		want: cost{Faults: 256, Virt: 730_100, Mallocs: laneMallocs}},
	{name: "ContendedFaults/2lanes", cfg: costCfg(2*laneBlocks + 1), ops: 2 * laneBlocks, setup: contended(2),
		want: cost{Faults: 512, Virt: 730_100, Mallocs: laneMallocs}},
	{name: "ContendedFaults/4lanes", cfg: costCfg(4*laneBlocks + 1), ops: 4 * laneBlocks, setup: contended(4),
		want: cost{Faults: 1024, Virt: 730_100, Mallocs: laneMallocs}},
	{name: "ContendedFaults/8lanes", cfg: costCfg(8*laneBlocks + 1), ops: 8 * laneBlocks, setup: contended(8),
		want: cost{Faults: 2048, Virt: 730_100, Mallocs: laneMallocs}},
}

// costCfg is the configuration BENCH_PR9.json was recorded with:
// rolling-update over 4 KiB blocks, the rolling size pinned at fixedRolling
// blocks (0: adaptive).
func costCfg(fixedRolling int) Config {
	cfg := defaultCfg(RollingUpdate)
	cfg.BlockSize = testPage
	cfg.FixedRolling = fixedRolling
	return cfg
}

func unbatched(cfg Config) Config {
	cfg.DisableFaultBatching = true
	return cfg
}

func TestCostModel(t *testing.T) {
	for _, c := range costCases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, c.cfg)
			window, reset := c.setup(t, r)
			// The pinned window is the second: the first publishes the
			// registry's lookup clones (republish) and fills the rolling cache.
			window(c.ops)
			reset()
			before, t0 := r.mgr.Stats(), r.clock.Now()
			mallocs := countMallocs(func() { window(c.ops) })
			got := costOf(r.mgr.Stats().Sub(before), r.clock.Now()-t0, mallocs)
			// The counter is process-wide, and the runtime allocates on its own
			// now and then. That only ever adds, so a window over its pin gets
			// two more tries and keeps the least.
			for try := 0; try < 2 && got.Mallocs > c.want.Mallocs; try++ {
				reset()
				got.Mallocs = min(got.Mallocs, countMallocs(func() { window(c.ops) }))
			}
			if c.want.Mallocs == laneMallocs {
				got.Mallocs = laneMallocs
			}
			if got != c.want {
				t.Errorf("%d ops:\n got  %#v\n want %#v", c.ops, got, c.want)
			}
		})
	}
}

// countMallocs returns the heap allocations made while f runs.
func countMallocs(f func()) int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	f()
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs - before)
}

// BenchmarkCostModel times the TestCostModel scenarios: one op is one
// operation of a window, and the resets between windows run off the clock.
func BenchmarkCostModel(b *testing.B) {
	for _, c := range costCases {
		b.Run(c.name, func(b *testing.B) {
			r := newRig(b, c.cfg)
			window, reset := c.setup(b, r)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				n := min(c.ops, b.N-done)
				window(n)
				if done += n; done < b.N {
					b.StopTimer()
					reset()
					b.StartTimer()
				}
			}
		})
	}
}

func blockAt(p mem.Addr, i int) mem.Addr { return p + mem.Addr(i)*testPage }

func (r *rig) alloc(tb testing.TB, spec AllocSpec) mem.Addr {
	tb.Helper()
	p, err := r.mgr.AllocObject(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// call runs the nop kernel under the given hints and waits for it.
func (r *rig) call(tb testing.TB, h CallHints) {
	tb.Helper()
	if err := r.mgr.InvokeHinted("nop", h); err != nil {
		tb.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		tb.Fatal(err)
	}
}

// writesNothing is a kernel call that writes nothing: it flushes Dirty
// blocks back to ReadOnly and invalidates nothing.
var writesNothing = CallHints{Writes: []mem.Addr{}, Annotated: true}

// each turns a per-operation body into a window. scripts/layers.sh finds
// the timed window's profile samples by this closure's name (each.funcN):
// renaming each, or inlining its closure away, means updating the script.
func each(tb testing.TB, op func(i int) error) func(n int) {
	return func(n int) {
		for i := range n {
			if err := op(i); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// readSweep reads one byte of every block of an invalidated object in
// address order; reset invalidates it again through a kernel annotated as
// writing it.
func readSweep(tb testing.TB, r *rig) (func(int), func()) {
	r.registerNop(tb)
	p := r.alloc(tb, AllocSpec{Size: sweepBlocks * testPage})
	invalidate := func() { r.call(tb, CallHints{Writes: []mem.Addr{p}, Annotated: true}) }
	invalidate()
	dst := make([]byte, 1)
	return each(tb, func(i int) error { return r.mgr.HostRead(blockAt(p, i), dst) }), invalidate
}

// writeSweep writes one byte of every block of a ReadOnly object; reset
// flushes the dirty blocks back to ReadOnly.
func writeSweep(tb testing.TB, r *rig) (func(int), func()) {
	r.registerNop(tb)
	p := r.alloc(tb, AllocSpec{Size: sweepBlocks * testPage})
	src := []byte{0xA5}
	return each(tb, func(i int) error { return r.mgr.HostWrite(blockAt(p, i), src) }),
		func() { r.call(tb, writesNothing) }
}

// rollingEvict writes 1024 blocks in order, window after window: once the
// rolling cache is full, every write evicts.
func rollingEvict(tb testing.TB, r *rig) (func(int), func()) {
	p := r.alloc(tb, AllocSpec{Size: 1024 * testPage})
	src := []byte{0x5A}
	return each(tb, func(i int) error { return r.mgr.HostWrite(blockAt(p, i), src) }), func() {}
}

// sealedReads reads a ModeReadOnly object after its first kernel call has
// replicated and sealed it.
func sealedReads(tb testing.TB, r *rig) (func(int), func()) {
	const blocks = 1 << 10
	r.registerNop(tb)
	p := r.alloc(tb, AllocSpec{Size: blocks * testPage, Mode: ModeReadOnly})
	src := []byte{0xC3}
	each(tb, func(i int) error { return r.mgr.HostWrite(blockAt(p, i), src) })(blocks)
	r.call(tb, CallHints{})
	dst := make([]byte, 1)
	return each(tb, func(i int) error { return r.mgr.HostRead(blockAt(p, i), dst) }), func() {}
}

// boundaryChurn alternates 16 operations that dirty every block of a
// 64-block object with 16 that read one block, each followed by a kernel
// call annotated as writing the object.
func boundaryChurn(tb testing.TB, r *rig) (func(int), func()) {
	const blocks = 64
	r.registerNop(tb)
	p := r.alloc(tb, AllocSpec{Size: blocks * testPage})
	src, dst := []byte{0x3C}, make([]byte, 1)
	writes := CallHints{Writes: []mem.Addr{p}, Annotated: true}
	return each(tb, func(i int) error {
		if (i/16)%2 == 0 {
			for j := range blocks {
				if err := r.mgr.HostWrite(blockAt(p, j), src); err != nil {
					return err
				}
			}
		} else if err := r.mgr.HostRead(blockAt(p, i%blocks), dst); err != nil {
			return err
		}
		r.call(tb, writes)
		return nil
	}), func() {}
}

// contended runs lanes goroutines, each in its own virtual-time lane seeded
// at the same instant, write-faulting through its own 1 MiB object. Lane l
// takes operations l, l+lanes, …, so any n splits exactly. Reset flushes the
// dirty blocks back to ReadOnly.
func contended(lanes int) func(testing.TB, *rig) (func(int), func()) {
	return func(tb testing.TB, r *rig) (func(int), func()) {
		r.registerNop(tb)
		ptrs := make([]mem.Addr, lanes)
		for l := range ptrs {
			ptrs[l] = r.alloc(tb, AllocSpec{Size: laneBlocks * testPage})
		}
		window := func(n int) {
			err := r.clock.Parallel(lanes, func(l int) error {
				src := []byte{byte(l)}
				for i := l; i < n; i += lanes {
					if err := r.mgr.HostWrite(blockAt(ptrs[l], i/lanes), src); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				tb.Fatal(err)
			}
		}
		return window, func() { r.call(tb, writesNothing) }
	}
}
