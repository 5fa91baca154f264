package core

import (
	"errors"
	"testing"

	"repro/internal/accel"
	"repro/internal/hostmmu"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/oplog"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Tests for the paper's suggested extensions: kernel write-set annotations
// (§4.3), peer DMA (§7), and accelerator virtual memory (§4.2).

func TestInvokeAnnotatedSkipsReadOnlyObjects(t *testing.T) {
	for _, kind := range []ProtocolKind{LazyUpdate, RollingUpdate} {
		t.Run(kind.String(), func(t *testing.T) {
			r := newRig(t, defaultCfg(kind))
			r.registerFill(t)
			table, _ := r.mgr.Alloc(512 << 10)
			out, _ := r.mgr.Alloc(64 << 10)
			// Initialise both; first annotated call flushes the dirty data.
			if err := r.mgr.HostWrite(table, make([]byte, 512<<10)); err != nil {
				t.Fatal(err)
			}
			if err := r.mgr.HostWrite(out, make([]byte, 64<<10)); err != nil {
				t.Fatal(err)
			}
			if err := r.mgr.InvokeAnnotated("fill", []mem.Addr{out}, uint64(out), 16, 1); err != nil {
				t.Fatal(err)
			}
			if err := r.mgr.Sync(); err != nil {
				t.Fatal(err)
			}
			base := r.mgr.Stats()
			// Reading the table costs nothing: it was not in the write set.
			buf := make([]byte, 4096)
			if err := r.mgr.HostRead(table, buf); err != nil {
				t.Fatal(err)
			}
			d := r.mgr.Stats().Sub(base)
			if d.BytesD2H != 0 || d.Faults != 0 {
				t.Fatalf("annotated call still invalidated read-only object: %+v", d)
			}
			// Reading the written object fetches it.
			if err := r.mgr.HostRead(out, buf); err != nil {
				t.Fatal(err)
			}
			if d := r.mgr.Stats().Sub(base); d.BytesD2H == 0 {
				t.Fatal("written object was not invalidated")
			}
			// A second annotated call must not re-send the clean table.
			base = r.mgr.Stats()
			if err := r.mgr.InvokeAnnotated("fill", []mem.Addr{out}, uint64(out), 16, 2); err != nil {
				t.Fatal(err)
			}
			if d := r.mgr.Stats().Sub(base); d.BytesH2D != 0 {
				t.Fatalf("clean table re-sent: %+v", d)
			}
			if err := r.mgr.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestInvokeAnnotatedWritesDetectedAfterFlush(t *testing.T) {
	// A dirty block flushed by an annotated call must fault again on the
	// next CPU write — otherwise updates are silently lost.
	r := newRig(t, defaultCfg(RollingUpdate))
	r.registerFill(t)
	table, _ := r.mgr.Alloc(128 << 10)
	out, _ := r.mgr.Alloc(4 << 10)
	if err := r.mgr.HostWrite(table, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.InvokeAnnotated("fill", []mem.Addr{out}, uint64(out), 4, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	// Modify the table again; the change must reach the device on the
	// next call.
	if err := r.mgr.HostWrite(table, []byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.InvokeAnnotated("fill", []mem.Addr{out}, uint64(out), 4, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	r.dev.Memory().Read(table, got)
	if got[0] != 9 {
		t.Fatalf("second write lost: device has %v", got)
	}
}

func TestInvokeAnnotatedUnknownObject(t *testing.T) {
	r := newRig(t, defaultCfg(LazyUpdate))
	r.registerFill(t)
	if err := r.mgr.InvokeAnnotated("fill", []mem.Addr{0xdead}, 0, 0, 0); !errors.Is(err, ErrNotShared) {
		t.Fatalf("bad annotation: %v", err)
	}
}

func TestInvokeAnnotatedBatchStaysConservative(t *testing.T) {
	// Batch-update has no access detection: non-written dirty objects must
	// be re-sent every call regardless of annotations.
	r := newRig(t, defaultCfg(BatchUpdate))
	r.registerFill(t)
	table, _ := r.mgr.Alloc(256 << 10)
	out, _ := r.mgr.Alloc(4 << 10)
	if err := r.mgr.HostWrite(table, make([]byte, 256<<10)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		base := r.mgr.Stats()
		if err := r.mgr.InvokeAnnotated("fill", []mem.Addr{out}, uint64(out), 4, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if d := r.mgr.Stats().Sub(base); d.BytesH2D < 256<<10 {
			t.Fatalf("call %d: batch skipped the table flush (%d bytes)", i, d.BytesH2D)
		}
		if err := r.mgr.Sync(); err != nil {
			t.Fatal(err)
		}
	}
}

func newVMRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	clock := sim.NewClock()
	bd := sim.NewBreakdown()
	mmu := hostmmu.New(hostmmu.Config{PageSize: testPage, SignalCost: 4 * sim.Microsecond}, clock, bd)
	va := mem.NewVASpace(0x1000_0000, 0x4_0000_0000)
	dev := accel.New(accel.Config{
		Name:          "vm-gpu",
		MemBase:       testDevBase,
		MemSize:       64 << 20,
		AllocAlign:    testPage,
		GFLOPS:        600,
		MemLink:       interconnect.G280Memory(),
		H2D:           interconnect.PCIe2x16H2D(),
		D2H:           interconnect.PCIe2x16D2H(),
		VirtualMemory: true,
	}, clock)
	mgr, err := NewManager(cfg, clock, bd, mmu, va, dev)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clock: clock, bd: bd, mmu: mmu, va: va, dev: dev, mgr: mgr}
}

func TestVirtualMemoryAllocNeverConflicts(t *testing.T) {
	r := newVMRig(t, defaultCfg(RollingUpdate))
	r.registerFill(t)
	// Occupy the whole device physical window on the host side.
	if err := r.va.Reserve(testDevBase, 64<<20); err != nil {
		t.Fatal(err)
	}
	ptr, err := r.mgr.Alloc(1 << 20)
	if err != nil {
		t.Fatalf("Alloc with device VM should never conflict: %v", err)
	}
	// The pointer is identity-mapped from the application's perspective.
	dv, err := r.mgr.Translate(ptr)
	if err != nil {
		t.Fatal(err)
	}
	if dv != ptr {
		t.Fatalf("VM object not identity-mapped: host %#x dev %#x", uint64(ptr), uint64(dv))
	}
	if r.dev.VAMappings() != 1 {
		t.Fatalf("device VA mappings = %d", r.dev.VAMappings())
	}
	// Full round trip through the translated device memory.
	if err := r.mgr.HostWrite(ptr, []byte{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.InvokeHinted("fill", CallHints{}, uint64(ptr), 16, 0x42); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := r.mgr.HostRead(ptr, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x42 {
		t.Fatalf("VM round trip: %v", got)
	}
	if err := r.mgr.Free(ptr); err != nil {
		t.Fatal(err)
	}
	if r.dev.VAMappings() != 0 {
		t.Fatal("device VA mapping leaked after free")
	}
	if r.dev.LiveAllocs() != 0 {
		t.Fatal("device physical allocation leaked after free")
	}
}

func TestVirtualMemoryManyObjects(t *testing.T) {
	r := newVMRig(t, defaultCfg(LazyUpdate))
	var ptrs []mem.Addr
	for i := 0; i < 16; i++ {
		p, err := r.mgr.Alloc(256 << 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.HostWrite(p, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	// Each object's data is isolated despite translation.
	for i, p := range ptrs {
		buf := make([]byte, 1)
		if err := r.mgr.HostRead(p, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("object %d corrupted: %d", i, buf[0])
		}
	}
	for _, p := range ptrs {
		if err := r.mgr.Free(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVirtualMemoryAllocMapVAFailureReleases: when the device refuses the
// virtual mapping, Alloc must give back the host mapping and the device
// memory it had already taken.
func TestVirtualMemoryAllocMapVAFailureReleases(t *testing.T) {
	r := newVMRig(t, defaultCfg(LazyUpdate))
	const size = 256 << 10
	// MapAnywhere is next-fit, so the host range Alloc will pick starts
	// where a probe mapping ends; occupy it in the device page table.
	probe, err := r.va.MapAnywhere(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.va.Unmap(probe.Addr); err != nil {
		t.Fatal(err)
	}
	phys, err := r.dev.Malloc(testPage)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.dev.MapVA(probe.Addr+size, phys, testPage); err != nil {
		t.Fatal(err)
	}
	mappings, allocs := r.va.Mappings(), r.dev.LiveAllocs()
	if _, err := r.mgr.Alloc(size); err == nil {
		t.Fatal("Alloc succeeded over a conflicting device VA mapping")
	}
	if got := r.va.Mappings(); got != mappings {
		t.Errorf("host mappings = %d after the failed Alloc, want %d", got, mappings)
	}
	if got := r.dev.LiveAllocs(); got != allocs {
		t.Errorf("live device allocations = %d after the failed Alloc, want %d", got, allocs)
	}
}

func TestPeerWriteReadRoundTrip(t *testing.T) {
	r := newRig(t, defaultCfg(RollingUpdate))
	ptr, _ := r.mgr.Alloc(192 << 10) // 3 blocks
	payload := make([]byte, 192<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	base := r.mgr.Stats()
	if err := r.mgr.PeerWrite(ptr, payload); err != nil {
		t.Fatal(err)
	}
	d := r.mgr.Stats().Sub(base)
	if d.PeerBytesIn != 192<<10 {
		t.Fatalf("peer in = %d", d.PeerBytesIn)
	}
	if d.BytesH2D != 0 {
		t.Fatalf("peer write staged %d bytes over the bus", d.BytesH2D)
	}
	// PeerRead returns the device contents without warming the host copy.
	got := make([]byte, 192<<10)
	if err := r.mgr.PeerRead(ptr, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
	// The CPU path also sees the data (fetch on fault).
	cpu := make([]byte, 8)
	if err := r.mgr.HostRead(ptr, cpu); err != nil {
		t.Fatal(err)
	}
	if cpu[0] != payload[0] {
		t.Fatalf("CPU read after peer write: %v", cpu[:4])
	}
}

func TestPeerWritePreservesDirtyBytes(t *testing.T) {
	// A peer write covering part of a dirty block must not lose the CPU's
	// other bytes in that block.
	r := newRig(t, defaultCfg(RollingUpdate))
	ptr, _ := r.mgr.Alloc(64 << 10) // one block
	host := make([]byte, 64<<10)
	for i := range host {
		host[i] = 0xaa
	}
	if err := r.mgr.HostWrite(ptr, host); err != nil {
		t.Fatal(err)
	}
	// Peer-write the first 4KB only.
	update := make([]byte, 4<<10)
	for i := range update {
		update[i] = 0xbb
	}
	if err := r.mgr.PeerWrite(ptr, update); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64<<10)
	if err := r.mgr.HostRead(ptr, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xbb || got[4<<10-1] != 0xbb {
		t.Fatalf("peer bytes lost: %x", got[0])
	}
	if got[4<<10] != 0xaa || got[64<<10-1] != 0xaa {
		t.Fatalf("dirty host bytes lost: %x", got[4<<10])
	}
}

func TestPeerOpsOnBatchFallBackToHost(t *testing.T) {
	r := newRig(t, defaultCfg(BatchUpdate))
	ptr, _ := r.mgr.Alloc(4096)
	if err := r.mgr.PeerWrite(ptr, []byte{5}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if err := r.mgr.PeerRead(ptr, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 5 {
		t.Fatalf("batch peer fallback: %d", buf[0])
	}
	if st := r.mgr.Stats(); st.PeerBytesIn != 0 || st.PeerBytesOut != 0 {
		t.Fatalf("batch should not count peer traffic: %+v", st)
	}
}

func TestPeerOpsBounds(t *testing.T) {
	r := newRig(t, defaultCfg(RollingUpdate))
	if err := r.mgr.PeerWrite(0x10, []byte{1}); !errors.Is(err, ErrNotShared) {
		t.Fatalf("peer write to unshared: %v", err)
	}
	if err := r.mgr.PeerRead(0x10, []byte{1}); !errors.Is(err, ErrNotShared) {
		t.Fatalf("peer read from unshared: %v", err)
	}
}

func TestTraceRecordsProtocolLifecycle(t *testing.T) {
	r := newRig(t, defaultCfg(RollingUpdate))
	r.registerFill(t)
	tr := trace.NewTracer(256)
	r.mgr.SetSpanTracer(tr)

	ptr, _ := r.mgr.Alloc(128 << 10) // 2 blocks of 64KB
	if err := r.mgr.HostWrite(ptr, make([]byte, 128<<10)); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.InvokeHinted("fill", CallHints{}, uint64(ptr), 4, 9); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if err := r.mgr.HostRead(ptr, buf); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Free(ptr); err != nil {
		t.Fatal(err)
	}

	// The lifecycle produces a deterministic event skeleton.
	evs := tr.Events()
	filter := func(k oplog.Kind) []oplog.Op {
		var out []oplog.Op
		for _, e := range evs {
			if e.Kind == k {
				out = append(out, e)
			}
		}
		return out
	}
	kinds := func(k oplog.Kind) int { return len(filter(k)) }
	if kinds(oplog.OpAlloc) != 1 || kinds(oplog.OpFree) != 1 {
		t.Fatalf("alloc/free events: %d/%d", kinds(oplog.OpAlloc), kinds(oplog.OpFree))
	}
	// 2 write faults (init) + 1 read fault (after kernel).
	if kinds(oplog.OpFault) != 3 {
		t.Fatalf("fault events = %d, want 3\n%v", kinds(oplog.OpFault), evs)
	}
	if kinds(oplog.OpInvoke) != 1 || kinds(oplog.OpSync) != 1 {
		t.Fatalf("invoke/sync events: %d/%d", kinds(oplog.OpInvoke), kinds(oplog.OpSync))
	}
	// Both dirty blocks flushed at invoke — coalesced into one contiguous
	// DMA covering the whole object; one block fetched after.
	flushes := filter(oplog.OpFlush)
	if len(flushes) != 1 || kinds(oplog.OpFetch) != 1 {
		t.Fatalf("flush/fetch events: %d/%d\n%v", len(flushes), kinds(oplog.OpFetch), evs)
	}
	if flushes[0].Size != 128<<10 {
		t.Fatalf("coalesced flush size = %d, want %d", flushes[0].Size, 128<<10)
	}
	// Timestamps are monotone.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("trace timestamps not monotone at %d", i)
		}
	}
	// Transitions render as state names.
	for _, e := range filter(oplog.OpTransition) {
		if _, from, to, _ := renderOp(e); from == "" || to == "" || from == to {
			t.Fatalf("bad transition event: %+v renders %q->%q", e, from, to)
		}
	}
}

func TestAllocForScopesInvocations(t *testing.T) {
	for _, kind := range []ProtocolKind{BatchUpdate, LazyUpdate, RollingUpdate} {
		t.Run(kind.String(), func(t *testing.T) {
			r := newRig(t, defaultCfg(kind))
			r.registerFill(t)
			r.dev.Register(&accel.Kernel{Name: "other", Run: func(*mem.Space, []uint64) {}})

			bound, err := r.mgr.AllocObject(AllocSpec{Size: 256 << 10, Kernels: []string{"fill"}})
			if err != nil {
				t.Fatal(err)
			}
			free, err := r.mgr.Alloc(64 << 10) // used by all kernels
			if err != nil {
				t.Fatal(err)
			}
			obj := r.mgr.ObjectAt(bound)
			if !obj.UsedBy("fill") || obj.UsedBy("other") || obj.Kernels() != 1 {
				t.Fatalf("binding metadata wrong")
			}
			if err := r.mgr.HostWrite(bound, make([]byte, 256<<10)); err != nil {
				t.Fatal(err)
			}
			if err := r.mgr.HostWrite(free, make([]byte, 64<<10)); err != nil {
				t.Fatal(err)
			}
			// A call to an unrelated kernel moves the unbound object but
			// leaves the bound one alone in both directions.
			base := r.mgr.Stats()
			if err := r.mgr.InvokeHinted("other", CallHints{}); err != nil {
				t.Fatal(err)
			}
			if err := r.mgr.Sync(); err != nil {
				t.Fatal(err)
			}
			d := r.mgr.Stats().Sub(base)
			if kind == RollingUpdate {
				// Rolling may flush the bound object's dirty blocks when
				// draining the cache, but must not invalidate it: reading
				// it back costs nothing.
				base = r.mgr.Stats()
				buf := make([]byte, 4)
				if err := r.mgr.HostRead(bound, buf); err != nil {
					t.Fatal(err)
				}
				if d2 := r.mgr.Stats().Sub(base); d2.BytesD2H != 0 {
					t.Fatalf("bound object was invalidated by unrelated call")
				}
			} else if d.BytesH2D > 64<<10+4096 {
				t.Fatalf("unrelated call moved the bound object: H2D=%d", d.BytesH2D)
			}
			// A call to the bound kernel moves it as usual.
			base = r.mgr.Stats()
			if err := r.mgr.InvokeHinted("fill", CallHints{}, uint64(bound), 4, 1); err != nil {
				t.Fatal(err)
			}
			if err := r.mgr.Sync(); err != nil {
				t.Fatal(err)
			}
			if kind == BatchUpdate {
				if d := r.mgr.Stats().Sub(base); d.BytesD2H < 256<<10 {
					t.Fatalf("bound call did not move the object: %+v", d)
				}
			}
			// Data correctness across the whole dance.
			got := make([]byte, 4)
			if err := r.mgr.HostRead(bound, got); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllocForDrainedBlockStillFaults(t *testing.T) {
	// Regression: a bound object's dirty block drained by an UNRELATED
	// call becomes ReadOnly; the next CPU write must fault (and be flushed
	// by the next bound call), not be silently lost.
	r := newRig(t, defaultCfg(RollingUpdate))
	r.dev.Register(&accel.Kernel{Name: "reader", Run: func(*mem.Space, []uint64) {}})
	r.dev.Register(&accel.Kernel{Name: "other", Run: func(*mem.Space, []uint64) {}})
	bound, err := r.mgr.AllocObject(AllocSpec{Size: 64 << 10, Kernels: []string{"reader"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.HostWrite(bound, []byte{1}); err != nil {
		t.Fatal(err)
	}
	// Unrelated call drains the rolling cache (flushing the bound block).
	if err := r.mgr.InvokeHinted("other", CallHints{}); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	// CPU writes again; this must fault and re-dirty the block so the
	// next bound call flushes it.
	base := r.mgr.Stats()
	if err := r.mgr.HostWrite(bound, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if d := r.mgr.Stats().Sub(base); d.WriteFaults != 1 {
		t.Fatalf("rewrite after drain did not fault: %+v", d)
	}
	if err := r.mgr.InvokeHinted("reader", CallHints{}, uint64(bound)); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	r.dev.Memory().Read(bound, got)
	if got[0] != 9 {
		t.Fatalf("write after drain lost: device has %d, want 9", got[0])
	}
}
