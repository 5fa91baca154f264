package core

import (
	"errors"
	"testing"

	"repro/internal/accel"
	"repro/internal/hostmmu"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/sim"
)

// rig is a complete simulated machine for manager tests.
type rig struct {
	clock *sim.Clock
	bd    *sim.Breakdown
	mmu   *hostmmu.MMU
	va    *mem.VASpace
	dev   *accel.Device
	mgr   *Manager
}

const (
	testPage    = 4096
	testDevBase = mem.Addr(0x2_0000_0000)
)

// newRig builds the testbed BENCH_PR9.json was recorded on, which the cost
// pins (cost_test.go) price faults on. The launch and alloc overheads are the
// core tests' own (TestBreakdownCategoriesPopulated needs both charged), and
// the device is sized for the pins' 64 MiB sweeps.
func newRig(tb testing.TB, cfg Config) *rig {
	tb.Helper()
	clock := sim.NewClock()
	bd := sim.NewBreakdown()
	mmu := hostmmu.New(hostmmu.Config{PageSize: testPage, SignalCost: 1500 * sim.Nanosecond}, clock, bd)
	va := mem.NewVASpace(0x1000_0000, 0x4_0000_0000)
	dev := accel.New(accel.Config{
		Name:           "sim-g280",
		MemBase:        testDevBase,
		MemSize:        128 << 20,
		AllocAlign:     testPage,
		GFLOPS:         933,
		MemLink:        interconnect.G280Memory(),
		H2D:            interconnect.PCIe2x16H2D(),
		D2H:            interconnect.PCIe2x16D2H(),
		LaunchOverhead: 8 * sim.Microsecond,
		AllocOverhead:  40 * sim.Microsecond,
	}, clock)
	mgr, err := NewManager(cfg, clock, bd, mmu, va, dev)
	if err != nil {
		tb.Fatal(err)
	}
	return &rig{clock: clock, bd: bd, mmu: mmu, va: va, dev: dev, mgr: mgr}
}

// must fails the test on a non-nil error.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func defaultCfg(kind ProtocolKind) Config {
	return Config{
		Protocol:     kind,
		BlockSize:    64 << 10,
		MallocCost:   2 * sim.Microsecond,
		FreeCost:     1 * sim.Microsecond,
		LaunchCost:   2 * sim.Microsecond,
		TreeNodeCost: 50 * sim.Nanosecond,
		MprotectCost: 1 * sim.Microsecond,
	}
}

// registerFill registers a kernel writing value to every float32 of a
// shared array: args = devPtr, count, valueBits.
func (r *rig) registerFill(t *testing.T) {
	t.Helper()
	r.dev.Register(&accel.Kernel{
		Name: "fill",
		Run: func(dev *mem.Space, args []uint64) {
			addr, count, bits := mem.Addr(args[0]), args[1], uint32(args[2])
			for i := uint64(0); i < count; i++ {
				dev.SetUint32(addr+mem.Addr(i*4), bits)
			}
		},
		Cost: accel.FixedCost(1e6, 1<<20),
	})
}

func TestAllocReturnsSharedPointer(t *testing.T) {
	r := newRig(t, defaultCfg(RollingUpdate))
	ptr, err := r.mgr.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// The shared-address trick: host pointer equals device pointer.
	if ptr < testDevBase {
		t.Fatalf("pointer %#x not in device range (shared address space broken)", uint64(ptr))
	}
	dv, err := r.mgr.Translate(ptr + 16)
	if err != nil {
		t.Fatal(err)
	}
	if dv != ptr+16 {
		t.Fatalf("Translate(%#x) = %#x; common-path objects must be identity-mapped", uint64(ptr+16), uint64(dv))
	}
	if !r.mgr.IsShared(ptr) || r.mgr.IsShared(0x42) {
		t.Fatal("IsShared misclassifies")
	}
	if r.mgr.Objects() != 1 {
		t.Fatalf("Objects = %d", r.mgr.Objects())
	}
	if err := r.mgr.Free(ptr); err != nil {
		t.Fatal(err)
	}
	if r.mgr.Objects() != 0 || r.mgr.IsShared(ptr) {
		t.Fatal("object not fully released")
	}
}

// TestRetiredRingKeepsLastFrees frees more objects than the retired ring
// holds: SnapshotObjects must list exactly the last maxRetiredObjects
// frees, each with the counters its object had when it was freed.
func TestRetiredRingKeepsLastFrees(t *testing.T) {
	r := newRig(t, defaultCfg(RollingUpdate))
	const frees = maxRetiredObjects + 6
	want := map[int64]ObjStats{} // by size: the object's counters at its Free
	for i := int64(1); i <= frees; i++ {
		ptr, err := r.mgr.Alloc(i * testPage)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.HostWrite(ptr, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if i > frees-maxRetiredObjects {
			want[i*testPage] = r.mgr.ObjectAt(ptr).Stats()
		}
		if err := r.mgr.Free(ptr); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	for _, row := range r.mgr.SnapshotObjects() {
		if !row.Freed {
			t.Fatalf("live row %+v after every object was freed", row)
		}
		st, ok := want[row.Size]
		if !ok || row.Stats != st || st.WriteFaults == 0 {
			t.Fatalf("freed row of size %d: stats %+v, want one of the last %d frees (%+v, %v)",
				row.Size, row.Stats, maxRetiredObjects, st, ok)
		}
		delete(want, row.Size)
		got++
	}
	if got != maxRetiredObjects {
		t.Fatalf("%d freed rows, want %d", got, maxRetiredObjects)
	}
}

func TestAllocConflictFallsBackToSafeAlloc(t *testing.T) {
	r := newRig(t, defaultCfg(LazyUpdate))
	// Occupy the address range the device will hand out (the §4.2
	// multi-accelerator conflict).
	if err := r.va.Reserve(testDevBase, 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := r.mgr.Alloc(4096); !errors.Is(err, ErrAddrConflict) {
		t.Fatalf("Alloc with conflicting VA: %v", err)
	}
	// Device allocation was rolled back.
	if r.dev.LiveAllocs() != 0 {
		t.Fatalf("leaked device allocation after conflict")
	}
	ptr, err := r.mgr.AllocObject(AllocSpec{Size: 4096, Safe: true})
	if err != nil {
		t.Fatal(err)
	}
	dv, err := r.mgr.Translate(ptr)
	if err != nil {
		t.Fatal(err)
	}
	if dv == ptr {
		t.Fatalf("SafeAlloc object unexpectedly identity-mapped")
	}
	obj := r.mgr.ObjectAt(ptr)
	if obj == nil || !obj.Safe() {
		t.Fatal("SafeAlloc object not marked safe")
	}
	// Writes through the host pointer land at the translated device
	// address after a kernel invocation.
	if err := r.mgr.HostWrite(ptr, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	r.dev.Register(&accel.Kernel{Name: "nop", Run: func(*mem.Space, []uint64) {}})
	if err := r.mgr.InvokeHinted("nop", CallHints{}); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	r.dev.Memory().Read(dv, got)
	if got[0] != 1 || got[3] != 4 {
		t.Fatalf("device copy = %v", got)
	}
}

func TestFreeUnknown(t *testing.T) {
	r := newRig(t, defaultCfg(LazyUpdate))
	if err := r.mgr.Free(0x1234); !errors.Is(err, ErrNotShared) {
		t.Fatalf("Free of unknown pointer: %v", err)
	}
	ptr, _ := r.mgr.Alloc(4096)
	if err := r.mgr.Free(ptr + 8); !errors.Is(err, ErrNotShared) {
		t.Fatalf("Free of interior pointer: %v", err)
	}
}

func TestHostAccessBounds(t *testing.T) {
	r := newRig(t, defaultCfg(LazyUpdate))
	ptr, _ := r.mgr.Alloc(4096)
	buf := make([]byte, 8)
	if err := r.mgr.HostRead(ptr+4090, buf); !errors.Is(err, ErrSpansObjects) {
		t.Fatalf("overrun read: %v", err)
	}
	if err := r.mgr.HostWrite(0x99, buf); !errors.Is(err, ErrNotShared) {
		t.Fatalf("unshared write: %v", err)
	}
	if err := r.mgr.HostRead(ptr, buf); err != nil {
		t.Fatal(err)
	}
}

// runKernelRoundTrip allocates a shared array, writes it from the CPU, has
// the accelerator overwrite it, and reads it back from the CPU. It returns
// the manager for stats inspection.
func runKernelRoundTrip(t *testing.T, kind ProtocolKind) *rig {
	t.Helper()
	cfg := defaultCfg(kind)
	// The round-trip tests assert the paper's one-fault-per-block protocol
	// behaviour; span batching (its own tests below) would merge the
	// sequential read faults.
	cfg.DisableFaultBatching = true
	r := newRig(t, cfg)
	r.registerFill(t)
	const n = 64 << 10 // 64K floats = 256KB
	ptr, err := r.mgr.Alloc(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	// CPU initialises the array to 1.0.
	one := [4]byte{0, 0, 0x80, 0x3f} // float32(1.0) LE
	init := make([]byte, n*4)
	for i := 0; i < n; i++ {
		copy(init[i*4:], one[:])
	}
	if err := r.mgr.HostWrite(ptr, init); err != nil {
		t.Fatal(err)
	}
	// Accelerator fills with 2.0.
	two := uint64(0x40000000)
	if err := r.mgr.InvokeHinted("fill", CallHints{}, uint64(ptr), n, two); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	// CPU must observe 2.0 everywhere.
	got := make([]byte, n*4)
	if err := r.mgr.HostRead(ptr, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got[i*4+3] != 0x40 || got[i*4+2] != 0 {
			t.Fatalf("%v: element %d wrong: % x", kind, i, got[i*4:i*4+4])
		}
	}
	return r
}

func TestCoherenceRoundTripBatch(t *testing.T) {
	r := runKernelRoundTrip(t, BatchUpdate)
	if f := r.mmu.Stats().Faults; f != 0 {
		t.Fatalf("batch-update took %d faults, want 0", f)
	}
	st := r.mgr.Stats()
	// Batch transfers the whole object both ways.
	if st.BytesH2D != 256<<10 || st.BytesD2H != 256<<10 {
		t.Fatalf("batch transfers: %+v", st)
	}
}

func TestCoherenceRoundTripLazy(t *testing.T) {
	r := runKernelRoundTrip(t, LazyUpdate)
	st := r.mgr.Stats()
	if st.BytesH2D != 256<<10 {
		t.Fatalf("lazy H2D = %d", st.BytesH2D)
	}
	// The CPU read the whole object after the kernel: one object fetch.
	if st.BytesD2H != 256<<10 || st.TransfersD2H != 1 {
		t.Fatalf("lazy D2H: %+v", st)
	}
	// Write fault on init + read fault after kernel.
	if st.Faults != 2 {
		t.Fatalf("lazy faults = %d, want 2", st.Faults)
	}
}

func TestCoherenceRoundTripRolling(t *testing.T) {
	r := runKernelRoundTrip(t, RollingUpdate)
	st := r.mgr.Stats()
	// 256KB object at 64KB blocks = 4 blocks, each faulted for write on
	// init and for read after the kernel.
	if st.WriteFaults != 4 || st.ReadFaults != 4 {
		t.Fatalf("rolling faults: %+v", st)
	}
	if st.BytesH2D != 256<<10 || st.BytesD2H != 256<<10 {
		t.Fatalf("rolling transfers: %+v", st)
	}
	// Rolling size is adaptive: one allocation -> capacity 2 -> the four
	// dirty init blocks caused evictions.
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if r.mgr.RollingCapacity() != 2 {
		t.Fatalf("rolling capacity = %d", r.mgr.RollingCapacity())
	}
}

// invalidateAll pushes every block of the object at ptr to StateInvalid the
// way a written-hinted invocation does: kernel fill + sync.
func invalidateAll(t *testing.T, r *rig, ptr mem.Addr, n uint64) {
	t.Helper()
	if err := r.mgr.InvokeHinted("fill", CallHints{}, uint64(ptr), n, 0x40000000); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanFaultBatchingStreaming(t *testing.T) {
	// A sequential read sweep over 16 invalid blocks rides the promotion
	// ladder 1,2,4,8 — 5 fault-service DMAs instead of 16, with every
	// byte still fetched exactly once.
	r := newRig(t, defaultCfg(RollingUpdate))
	r.registerFill(t)
	const n = 256 << 10 // 1MB = 16 blocks of 64KB
	ptr, err := r.mgr.Alloc(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.HostWrite(ptr, make([]byte, n*4)); err != nil {
		t.Fatal(err)
	}
	invalidateAll(t, r, ptr, n)
	base := r.mgr.Stats()
	got := make([]byte, n*4)
	if err := r.mgr.HostRead(ptr, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(n); i++ {
		if got[i*4+3] != 0x40 {
			t.Fatalf("element %d wrong: % x", i, got[i*4:i*4+4])
		}
	}
	st := r.mgr.Stats().Sub(base)
	if st.BytesD2H != n*4 {
		t.Fatalf("streaming read fetched %d bytes, want %d", st.BytesD2H, n*4)
	}
	// Faults at blocks 0 (run 1), 1 (run 2), 3 (run 4), 7 (run 8), 15
	// (run 1, object end).
	if st.ReadFaults != 5 || st.TransfersD2H != 5 {
		t.Fatalf("streaming faults: %+v", st)
	}
	if st.FaultBatches != 3 || st.PrefetchedBlocks != 11 {
		t.Fatalf("batch counters: %+v", st)
	}
	if st.SpanPromotions != 4 {
		t.Fatalf("promotions = %d, want 4", st.SpanPromotions)
	}
}

func TestSpanFaultBatchingDemotesOnRandomAccess(t *testing.T) {
	r := newRig(t, defaultCfg(RollingUpdate))
	r.registerFill(t)
	const n = 256 << 10 // 16 blocks
	ptr, err := r.mgr.Alloc(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.HostWrite(ptr, make([]byte, n*4)); err != nil {
		t.Fatal(err)
	}
	invalidateAll(t, r, ptr, n)
	base := r.mgr.Stats()
	buf := make([]byte, 4)
	// Two sequential faults grow the span to 2; a fault far away must
	// reset it to 1 rather than over-fetch around the random address.
	for _, blk := range []int{0, 1, 10} {
		if err := r.mgr.HostRead(ptr+mem.Addr(blk*64<<10), buf); err != nil {
			t.Fatal(err)
		}
	}
	st := r.mgr.Stats().Sub(base)
	if st.SpanDemotions != 1 {
		t.Fatalf("demotions = %d, want 1: %+v", st.SpanDemotions, st)
	}
	// Block 10 was fetched alone: the demoted span must not prefetch 11.
	if st.PrefetchedBlocks != 1 { // only block 2, from the 0,1 streak
		t.Fatalf("prefetched = %d, want 1: %+v", st.PrefetchedBlocks, st)
	}
}

func TestDisableFaultBatchingPins1BlockRuns(t *testing.T) {
	cfg := defaultCfg(RollingUpdate)
	cfg.DisableFaultBatching = true
	r := newRig(t, cfg)
	r.registerFill(t)
	const n = 256 << 10
	ptr, err := r.mgr.Alloc(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.HostWrite(ptr, make([]byte, n*4)); err != nil {
		t.Fatal(err)
	}
	invalidateAll(t, r, ptr, n)
	base := r.mgr.Stats()
	got := make([]byte, n*4)
	if err := r.mgr.HostRead(ptr, got); err != nil {
		t.Fatal(err)
	}
	st := r.mgr.Stats().Sub(base)
	if st.ReadFaults != 16 || st.TransfersD2H != 16 {
		t.Fatalf("unbatched faults: %+v", st)
	}
	if st.FaultBatches != 0 || st.PrefetchedBlocks != 0 || st.SpanPromotions != 0 {
		t.Fatalf("batching stats should be zero when disabled: %+v", st)
	}
}

func TestSpanFaultBatchingFourXFewerDMAs(t *testing.T) {
	// The acceptance bound: on a long sequential stream (64 invalid blocks)
	// batching must cut fault-service DMAs by at least 4x versus the
	// one-fault-per-block oracle. The ladder reaches the 16-block span cap
	// by block 15 and stays there: faults at 0,1,3,7,15,31,47,63 = 8 DMAs.
	run := func(disable bool) Stats {
		cfg := defaultCfg(RollingUpdate)
		cfg.DisableFaultBatching = disable
		r := newRig(t, cfg)
		r.registerFill(t)
		const n = 1 << 20 // 4MB = 64 blocks of 64KB
		ptr, err := r.mgr.Alloc(n * 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.HostWrite(ptr, make([]byte, n*4)); err != nil {
			t.Fatal(err)
		}
		invalidateAll(t, r, ptr, n)
		base := r.mgr.Stats()
		got := make([]byte, n*4)
		if err := r.mgr.HostRead(ptr, got); err != nil {
			t.Fatal(err)
		}
		st := r.mgr.Stats().Sub(base)
		if st.BytesD2H != n*4 {
			t.Fatalf("disable=%v fetched %d bytes, want %d", disable, st.BytesD2H, n*4)
		}
		return st
	}
	oracle := run(true)
	batched := run(false)
	if oracle.TransfersD2H != 64 {
		t.Fatalf("oracle DMAs = %d, want 64", oracle.TransfersD2H)
	}
	if 4*batched.TransfersD2H > oracle.TransfersD2H {
		t.Fatalf("batching saved too little: %d DMAs vs oracle %d (need >= 4x)",
			batched.TransfersD2H, oracle.TransfersD2H)
	}
}

func TestLazySkipsUntouchedObjects(t *testing.T) {
	// The headline lazy-update win (Figure 8): objects the CPU does not
	// touch after a kernel are never transferred back, and objects the CPU
	// does not modify are not re-sent.
	r := newRig(t, defaultCfg(LazyUpdate))
	r.registerFill(t)
	in, _ := r.mgr.Alloc(1 << 20)
	out, _ := r.mgr.Alloc(1 << 20)
	if err := r.mgr.HostWrite(in, make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	base := r.mgr.Stats()
	for iter := 0; iter < 10; iter++ {
		if err := r.mgr.InvokeHinted("fill", CallHints{}, uint64(out), 16, 7); err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	st := r.mgr.Stats().Sub(base)
	// Only the first invocation sends `in` (dirty from init); afterwards
	// nothing is dirty, and the CPU never reads, so no D2H at all.
	if st.BytesH2D != 1<<20 {
		t.Fatalf("lazy re-sent unmodified data: H2D=%d", st.BytesH2D)
	}
	if st.BytesD2H != 0 {
		t.Fatalf("lazy fetched untouched data: D2H=%d", st.BytesD2H)
	}
}

func TestBatchTransfersEverythingEveryIteration(t *testing.T) {
	r := newRig(t, defaultCfg(BatchUpdate))
	r.registerFill(t)
	r.mgr.Alloc(1 << 20)
	out, _ := r.mgr.Alloc(1 << 20)
	base := r.mgr.Stats()
	const iters = 5
	for i := 0; i < iters; i++ {
		if err := r.mgr.InvokeHinted("fill", CallHints{}, uint64(out), 16, 7); err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	st := r.mgr.Stats().Sub(base)
	if st.BytesH2D != iters*2<<20 || st.BytesD2H != iters*2<<20 {
		t.Fatalf("batch should move everything every iteration: %+v", st)
	}
}

func TestRollingFetchesOnlyTouchedBlocks(t *testing.T) {
	// Scattered reads after a kernel fetch single blocks, not the object.
	r := newRig(t, defaultCfg(RollingUpdate))
	r.registerFill(t)
	ptr, _ := r.mgr.Alloc(1 << 20) // 16 blocks of 64KB
	if err := r.mgr.InvokeHinted("fill", CallHints{}, uint64(ptr), 8, 3); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	base := r.mgr.Stats()
	buf := make([]byte, 4)
	// Touch three scattered blocks.
	for _, off := range []mem.Addr{0, 300 << 10, 900 << 10} {
		if err := r.mgr.HostRead(ptr+off, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := r.mgr.Stats().Sub(base)
	if st.BytesD2H != 3*64<<10 {
		t.Fatalf("scattered reads fetched %d bytes, want 3 blocks", st.BytesD2H)
	}
	if st.Faults != 3 {
		t.Fatalf("faults = %d, want 3", st.Faults)
	}
}

func TestRollingEvictionBound(t *testing.T) {
	// Invariant: after any single fault resolution, the number of dirty
	// blocks never exceeds the rolling capacity.
	cfg := defaultCfg(RollingUpdate)
	cfg.FixedRolling = 2
	r := newRig(t, cfg)
	ptr, _ := r.mgr.Alloc(1 << 20) // 16 blocks
	obj := r.mgr.ObjectAt(ptr)
	buf := []byte{1}
	for off := int64(0); off < 1<<20; off += 64 << 10 {
		if err := r.mgr.HostWrite(ptr+mem.Addr(off), buf); err != nil {
			t.Fatal(err)
		}
		if n := obj.countState(StateDirty); n > 2 {
			t.Fatalf("dirty blocks %d exceed fixed rolling size 2", n)
		}
	}
	st := r.mgr.Stats()
	if st.Evictions != 14 {
		t.Fatalf("evictions = %d, want 14", st.Evictions)
	}
	if r.mgr.RollingLen() != 2 {
		t.Fatalf("rolling cache holds %d", r.mgr.RollingLen())
	}
	// Evicted blocks are ReadOnly: rewriting one faults again.
	base := r.mgr.Stats()
	if err := r.mgr.HostWrite(ptr, buf); err != nil {
		t.Fatal(err)
	}
	if d := r.mgr.Stats().Sub(base); d.WriteFaults != 1 {
		t.Fatalf("rewrite of evicted block: %+v", d)
	}
}

func TestAdaptiveRollingGrowsPerAlloc(t *testing.T) {
	r := newRig(t, defaultCfg(RollingUpdate))
	if r.mgr.RollingCapacity() != 0 {
		t.Fatalf("initial capacity %d", r.mgr.RollingCapacity())
	}
	for i := 1; i <= 3; i++ {
		if _, err := r.mgr.Alloc(128 << 10); err != nil {
			t.Fatal(err)
		}
		if got := r.mgr.RollingCapacity(); got != 2*i {
			t.Fatalf("capacity after %d allocs = %d, want %d", i, got, 2*i)
		}
	}
}

func TestInvokeFlushesRollingCache(t *testing.T) {
	r := newRig(t, defaultCfg(RollingUpdate))
	r.registerFill(t)
	ptr, _ := r.mgr.Alloc(256 << 10)
	if err := r.mgr.HostWrite(ptr, make([]byte, 256<<10)); err != nil {
		t.Fatal(err)
	}
	if r.mgr.RollingLen() == 0 {
		t.Fatal("no blocks queued after writes")
	}
	if err := r.mgr.InvokeHinted("fill", CallHints{}, uint64(ptr), 4, 1); err != nil {
		t.Fatal(err)
	}
	if r.mgr.RollingLen() != 0 {
		t.Fatal("rolling cache not drained by invoke")
	}
	st := r.mgr.Stats()
	if st.BytesH2D != 256<<10 {
		t.Fatalf("invoke flushed %d bytes, want whole object", st.BytesH2D)
	}
	obj := r.mgr.ObjectAt(ptr)
	if obj.countState(StateInvalid) != obj.Blocks() {
		t.Fatal("not all blocks invalid after invoke")
	}
}

func TestStateMachineEdges(t *testing.T) {
	// Walk one block through every Figure 6(b) edge and check the states.
	r := newRig(t, defaultCfg(RollingUpdate))
	r.registerFill(t)
	ptr, _ := r.mgr.Alloc(64 << 10) // exactly one block
	obj := r.mgr.ObjectAt(ptr)
	b := obj.BlockAt(ptr)
	if b.State() != StateReadOnly {
		t.Fatalf("initial state %v", b.State())
	}
	// Read of ReadOnly: no transition.
	buf := make([]byte, 4)
	if err := r.mgr.HostRead(ptr, buf); err != nil {
		t.Fatal(err)
	}
	if b.State() != StateReadOnly {
		t.Fatalf("after read: %v", b.State())
	}
	// Write: ReadOnly -> Dirty.
	if err := r.mgr.HostWrite(ptr, buf); err != nil {
		t.Fatal(err)
	}
	if b.State() != StateDirty {
		t.Fatalf("after write: %v", b.State())
	}
	// Repeated write: no fault, stays Dirty.
	base := r.mgr.Stats()
	if err := r.mgr.HostWrite(ptr+8, buf); err != nil {
		t.Fatal(err)
	}
	if d := r.mgr.Stats().Sub(base); d.Faults != 0 {
		t.Fatal("write to Dirty block faulted")
	}
	// Invoke: -> Invalid.
	if err := r.mgr.InvokeHinted("fill", CallHints{}, uint64(ptr), 4, 5); err != nil {
		t.Fatal(err)
	}
	if b.State() != StateInvalid {
		t.Fatalf("after invoke: %v", b.State())
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	// Read of Invalid: fetch -> ReadOnly.
	if err := r.mgr.HostRead(ptr, buf); err != nil {
		t.Fatal(err)
	}
	if b.State() != StateReadOnly {
		t.Fatalf("after invalid read: %v", b.State())
	}
	// Invoke (nothing dirty) then write of Invalid: fetch -> Dirty.
	if err := r.mgr.InvokeHinted("fill", CallHints{}, uint64(ptr), 4, 6); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.HostWrite(ptr, buf); err != nil {
		t.Fatal(err)
	}
	if b.State() != StateDirty {
		t.Fatalf("after invalid write: %v", b.State())
	}
}

func TestBreakdownCategoriesPopulated(t *testing.T) {
	r := runKernelRoundTrip(t, RollingUpdate)
	for _, cat := range []sim.Category{
		sim.CatMalloc, sim.CatCudaMalloc, sim.CatLaunch, sim.CatCudaLaunch,
		sim.CatSignal, sim.CatCopy, sim.CatGPU,
	} {
		if r.bd.Get(cat) == 0 {
			t.Errorf("breakdown category %s empty after full round trip", cat)
		}
	}
}

func TestRollingRequiresBlockSize(t *testing.T) {
	clock := sim.NewClock()
	mmu := hostmmu.New(hostmmu.Config{PageSize: testPage, SignalCost: 0}, clock, nil)
	va := mem.NewVASpace(0x1000, 0x100000)
	dev := accel.New(accel.Config{Name: "d", MemBase: 0, MemSize: 1 << 20,
		MemLink: interconnect.G280Memory(), H2D: interconnect.PCIe2x16H2D(),
		D2H: interconnect.PCIe2x16D2H()}, clock)
	if _, err := NewManager(Config{Protocol: RollingUpdate}, clock, nil, mmu, va, dev); err == nil {
		t.Fatal("rolling-update without block size accepted")
	}
	if _, err := NewManager(Config{Protocol: RollingUpdate, BlockSize: 1000}, clock, nil, mmu, va, dev); err == nil {
		t.Fatal("non-page-multiple block size accepted")
	}
}

func TestProtocolKindString(t *testing.T) {
	if BatchUpdate.String() != "batch-update" ||
		LazyUpdate.String() != "lazy-update" ||
		RollingUpdate.String() != "rolling-update" {
		t.Fatal("ProtocolKind names changed")
	}
	if StateInvalid.String() != "Invalid" || StateDirty.String() != "Dirty" || StateReadOnly.String() != "ReadOnly" {
		t.Fatal("State names changed")
	}
}

func TestSmallObjectSingleShortBlock(t *testing.T) {
	// Objects smaller than the block size get one short block (§3.3 of the
	// paper's protocol description).
	r := newRig(t, defaultCfg(RollingUpdate))
	ptr, _ := r.mgr.Alloc(1000)
	obj := r.mgr.ObjectAt(ptr)
	if obj.Blocks() != 1 {
		t.Fatalf("blocks = %d", obj.Blocks())
	}
	b := obj.BlockAt(ptr)
	if b.Size() != 1000 {
		t.Fatalf("block size = %d", b.Size())
	}
	if obj.BlockAt(ptr+999) != b {
		t.Fatal("BlockAt end of short block failed")
	}
	if obj.BlockAt(ptr+1000) != nil {
		t.Fatal("BlockAt past object end returned a block")
	}
}

func TestLastBlockShort(t *testing.T) {
	r := newRig(t, defaultCfg(RollingUpdate))
	ptr, _ := r.mgr.Alloc(64<<10 + 100)
	obj := r.mgr.ObjectAt(ptr)
	if obj.Blocks() != 2 {
		t.Fatalf("blocks = %d", obj.Blocks())
	}
	last := obj.BlockAt(ptr + 64<<10)
	if last.Size() != 100 {
		t.Fatalf("last block size = %d", last.Size())
	}
}

func TestEvictionOverlapAccounting(t *testing.T) {
	// Evictions submitted while the DMA engine is idle cost the CPU
	// nothing; back-to-back evictions of large blocks wait for the engine.
	cfg := defaultCfg(RollingUpdate)
	cfg.FixedRolling = 1
	cfg.BlockSize = 1 << 20
	r := newRig(t, cfg)
	ptr, _ := r.mgr.Alloc(8 << 20)
	buf := []byte{1}
	base := r.mgr.Stats()
	// Dirty blocks back-to-back with no CPU work in between: every second
	// eviction must wait for the previous 1MB transfer.
	for off := int64(0); off < 8<<20; off += 1 << 20 {
		if err := r.mgr.HostWrite(ptr+mem.Addr(off), buf); err != nil {
			t.Fatal(err)
		}
	}
	st := r.mgr.Stats().Sub(base)
	if st.Evictions != 7 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
	if st.H2DWait == 0 {
		t.Fatal("back-to-back evictions should have waited for the DMA engine")
	}
}

func TestFaultOnUnsharedPageFails(t *testing.T) {
	r := newRig(t, defaultCfg(LazyUpdate))
	// Map a page in the MMU that the manager does not know about.
	r.mmu.Map(0x5000_0000, testPage, hostmmu.ProtNone)
	err := r.mmu.CheckRead(0x5000_0000, 4)
	if err == nil {
		t.Fatal("fault on unshared page resolved")
	}
}

// TestSetStateTransition pins the one Figure 6 transition: setState moves
// every block of the run, and costs exactly one mprotect (one MprotectCost
// on the clock) iff the object detects accesses — never under plain
// batch-update, always under lazy and rolling, and under batch-update once
// a read-only replica is sealed. The pages then carry protFor[to], which
// checkBlockProt — written on the same detects/protFor — must agree with.
func TestSetStateTransition(t *testing.T) {
	cases := []struct {
		name   string
		kind   ProtocolKind
		sealed bool
		detect bool
	}{
		{"batch", BatchUpdate, false, false},
		{"lazy", LazyUpdate, false, true},
		{"rolling", RollingUpdate, false, true},
		{"sealed-read-only-on-batch", BatchUpdate, true, true},
	}
	for _, tc := range cases {
		for _, to := range []State{StateInvalid, StateReadOnly, StateDirty} {
			t.Run(tc.name+"/"+to.String(), func(t *testing.T) {
				cfg := defaultCfg(tc.kind)
				r := newRig(t, cfg)
				spec := AllocSpec{Size: 4 * cfg.BlockSize}
				if tc.sealed {
					spec.Mode = ModeReadOnly
				}
				ptr, err := r.mgr.AllocObject(spec)
				if err != nil {
					t.Fatal(err)
				}
				o := r.mgr.reg.objectAt(ptr)
				if tc.sealed {
					r.registerNop(t)
					if err := r.mgr.InvokeHinted("nop", CallHints{}); err != nil {
						t.Fatal(err)
					}
					o.mu.Lock()
					sealed := o.pol.sealed
					o.mu.Unlock()
					if !sealed {
						t.Fatal("read-only object not sealed by its first release")
					}
				}
				o.mu.Lock()
				defer o.mu.Unlock()
				if got := o.detects(); got != tc.detect {
					t.Fatalf("detects() = %v, want %v", got, tc.detect)
				}
				// A strict sub-run where the object has blocks to spare, so
				// the neighbours prove the transition stays inside its run.
				first, n := o.blocks[0], len(o.blocks)
				if n > 2 {
					first, n = o.blocks[1], 2
				}
				outside := o.blocks[len(o.blocks)-1].state
				mprotects, now := r.mmu.Stats().Mprotects, r.clock.Now()
				r.mgr.setState(first, n, to)
				want := int64(0)
				if tc.detect {
					want = 1
				}
				if got := r.mmu.Stats().Mprotects - mprotects; got != want {
					t.Errorf("%d mprotect calls, want %d", got, want)
				}
				if got := r.clock.Now() - now; got != sim.Time(want)*cfg.MprotectCost {
					t.Errorf("clock moved %v, want %v", got, sim.Time(want)*cfg.MprotectCost)
				}
				for _, b := range o.blocks {
					in := b.index >= first.index && b.index < first.index+n
					if in && b.state != to {
						t.Errorf("block %d is %v after the transition, want %v", b.index, b.state, to)
					}
					if !in && b.state != outside {
						t.Errorf("block %d outside the run moved to %v", b.index, b.state)
					}
					if err := r.mgr.checkBlockProt(b); err != nil {
						t.Error(err)
					}
					if !in || !tc.detect {
						continue
					}
					for off := int64(0); off < b.size; off += testPage {
						if got, _ := r.mmu.Protection(b.addr + mem.Addr(off)); got != protFor[to] {
							t.Errorf("block %d page +%d has protection %v, want %v", b.index, off, got, protFor[to])
						}
					}
				}
			})
		}
	}
}

// countState returns how many blocks are in the given state.
func (o *Object) countState(s State) int {
	n := 0
	for _, b := range o.blocks {
		if b.state == s {
			n++
		}
	}
	return n
}
