package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/mem"
)

func (r *rig) registerNop(t *testing.T) {
	t.Helper()
	r.dev.Register(&accel.Kernel{Name: "nop", Run: func(*mem.Space, []uint64) {}})
}

// fillObject writes one marker byte into every block of the object.
func (r *rig) fillObject(t *testing.T, ptr mem.Addr, blocks int, v byte) {
	t.Helper()
	for i := 0; i < blocks; i++ {
		if err := r.mgr.HostWrite(ptr+mem.Addr(int64(i)*(64<<10)), []byte{v}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadOnlySealZeroDMA is the ISSUE's acceptance invariant: once a
// ModeReadOnly object is sealed by its first kernel release, it generates
// zero fault-service DMA — no faults, no device-to-host bytes — no matter
// how many kernel calls follow, under every protocol.
func TestReadOnlySealZeroDMA(t *testing.T) {
	for _, kind := range []ProtocolKind{BatchUpdate, LazyUpdate, RollingUpdate} {
		t.Run(kind.String(), func(t *testing.T) {
			r := newRig(t, defaultCfg(kind))
			r.registerNop(t)
			const blocks = 4
			ptr, err := r.mgr.AllocObject(AllocSpec{Size: blocks * (64 << 10), Mode: ModeReadOnly})
			if err != nil {
				t.Fatal(err)
			}
			r.fillObject(t, ptr, blocks, 0x5E)
			// First kernel release: flush and seal.
			if err := r.mgr.Invoke("nop"); err != nil {
				t.Fatal(err)
			}
			if err := r.mgr.Sync(); err != nil {
				t.Fatal(err)
			}
			base := r.mgr.Stats()
			buf := make([]byte, 1)
			for i := 0; i < 5; i++ {
				if err := r.mgr.Invoke("nop"); err != nil {
					t.Fatal(err)
				}
				if err := r.mgr.Sync(); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < blocks; j++ {
					if err := r.mgr.HostRead(ptr+mem.Addr(int64(j)*(64<<10)), buf); err != nil {
						t.Fatal(err)
					}
					if buf[0] != 0x5E {
						t.Fatalf("sealed read-only data changed: %#x", buf[0])
					}
				}
			}
			d := r.mgr.Stats().Sub(base)
			if d.Faults != 0 || d.BytesD2H != 0 {
				t.Fatalf("sealed object still pays coherence: %d faults, %d D2H bytes", d.Faults, d.BytesD2H)
			}
			// Host writes after the seal violate the declaration.
			if err := r.mgr.HostWrite(ptr, []byte{1}); !errors.Is(err, ErrModeViolation) {
				t.Fatalf("write after seal: got %v, want ErrModeViolation", err)
			}
			// So does listing the object in a kernel write set.
			if err := r.mgr.InvokeAnnotated("nop", []mem.Addr{ptr}); !errors.Is(err, ErrModeViolation) {
				t.Fatalf("read-only object in write set: got %v, want ErrModeViolation", err)
			}
			if err := r.mgr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWriteOnlyElidesFetch: a host write fault on an Invalid block of a
// ModeWriteOnly object skips the device fetch (the data is dead by
// declaration), and a host read of Invalid data is a mode violation.
func TestWriteOnlyElidesFetch(t *testing.T) {
	// Rolling-update, so the object has real 64 KiB blocks and the second
	// block stays Invalid while the first is rewritten (batch/lazy track
	// whole objects as one block).
	r := newRig(t, defaultCfg(RollingUpdate))
	r.registerNop(t)
	const blocks = 2
	ptr, err := r.mgr.AllocObject(AllocSpec{Size: blocks * (64 << 10), Mode: ModeWriteOnly})
	if err != nil {
		t.Fatal(err)
	}
	r.fillObject(t, ptr, blocks, 0xA1)
	// Unannotated call: the object is invalidated at release.
	if err := r.mgr.Invoke("nop"); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	base := r.mgr.Stats()
	if err := r.mgr.HostWrite(ptr, []byte{0xB2}); err != nil {
		t.Fatal(err)
	}
	d := r.mgr.Stats().Sub(base)
	if d.BytesD2H != 0 {
		t.Fatalf("write fault on write-only Invalid block fetched %d bytes", d.BytesD2H)
	}
	if d.FetchElisions == 0 {
		t.Fatal("fetch elision not counted")
	}
	// The freshly written block is readable again; the still-Invalid block
	// is not.
	if err := r.mgr.HostRead(ptr, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.HostRead(ptr+64<<10, make([]byte, 1)); !errors.Is(err, ErrModeViolation) {
		t.Fatalf("read of Invalid write-only data: got %v, want ErrModeViolation", err)
	}
}

// TestAutoMigratesWithHysteresis drives one ModeAuto object through a
// streaming-write phase and a sparse-read phase and checks the protocol
// follows — but only after the hysteresis threshold, never on the first
// window.
func TestAutoMigratesWithHysteresis(t *testing.T) {
	r := newRig(t, defaultCfg(LazyUpdate))
	r.registerNop(t)
	const blocks = 16
	ptr, err := r.mgr.AllocObject(AllocSpec{Size: blocks * (64 << 10), Mode: ModeAuto})
	if err != nil {
		t.Fatal(err)
	}
	o := r.mgr.objectAt(ptr)
	if o.proto != LazyUpdate {
		t.Fatalf("auto object starts on %v, want configured lazy", o.proto)
	}
	cycle := func(annotated bool) {
		t.Helper()
		var err error
		if annotated {
			err = r.mgr.InvokeAnnotated("nop", []mem.Addr{ptr})
		} else {
			err = r.mgr.Invoke("nop")
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// Streaming-write phase: every block dirtied between calls.
	for i := 0; i < 2*autoWindow; i++ {
		r.fillObject(t, ptr, blocks, byte(i))
		cycle(true)
		if i == autoWindow-1 && r.mgr.Stats().ModeMigrations != 0 {
			t.Fatal("migrated on the first window: hysteresis not applied")
		}
	}
	if got := r.mgr.Stats().ModeMigrations; got != 1 {
		t.Fatalf("after streaming phase: %d migrations, want 1", got)
	}
	if o.proto != RollingUpdate {
		t.Fatalf("streaming writes migrated to %v, want rolling", o.proto)
	}
	// Sparse-read phase: one read fault per call window.
	for i := 0; i < 2*autoWindow; i++ {
		if err := r.mgr.HostRead(ptr+mem.Addr(int64(i%blocks)*(64<<10)), make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		cycle(false)
	}
	if got := r.mgr.Stats().ModeMigrations; got != 2 {
		t.Fatalf("after sparse-read phase: %d migrations, want 2", got)
	}
	if o.proto != LazyUpdate {
		t.Fatalf("sparse reads migrated to %v, want lazy", o.proto)
	}
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRegionAcquireRelease: a region acquire makes exactly the listed
// objects host-valid (later reads take no faults), and a region release
// publishes host writes without waiting for a kernel call.
func TestRegionAcquireRelease(t *testing.T) {
	r := newRig(t, defaultCfg(LazyUpdate))
	r.registerNop(t)
	a, err := r.mgr.Alloc(128 << 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.mgr.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	r.fillObject(t, a, 2, 0x11)
	r.fillObject(t, b, 1, 0x22)
	// Unannotated call invalidates both objects.
	if err := r.mgr.Invoke("nop"); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.AcquireRegion(a, b); err != nil {
		t.Fatal(err)
	}
	base := r.mgr.Stats()
	for _, p := range []mem.Addr{a, a + 64<<10, b} {
		if err := r.mgr.HostRead(p, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if d := r.mgr.Stats().Sub(base); d.Faults != 0 {
		t.Fatalf("reads after region acquire still faulted %d times", d.Faults)
	}
	// Region release publishes dirty host data over the bus.
	if err := r.mgr.HostWrite(a, []byte{0x33}); err != nil {
		t.Fatal(err)
	}
	base = r.mgr.Stats()
	if err := r.mgr.ReleaseRegion(a); err != nil {
		t.Fatal(err)
	}
	if d := r.mgr.Stats().Sub(base); d.BytesH2D == 0 {
		t.Fatal("region release flushed nothing")
	}
	st := r.mgr.Stats()
	if st.RegionAcquires != 1 || st.RegionReleases != 1 {
		t.Fatalf("region counters %d/%d, want 1/1", st.RegionAcquires, st.RegionReleases)
	}
	if err := r.mgr.AcquireRegion(mem.Addr(0xdead)); !errors.Is(err, ErrNotShared) {
		t.Fatalf("unshared region pointer: got %v, want ErrNotShared", err)
	}
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayAutoMigrationDeterminism records a run whose Auto object
// migrates (plus region scopes), replays the stream on a fresh rig, and
// requires the replay to reproduce the counter totals exactly — including
// the migration count.
func TestReplayAutoMigrationDeterminism(t *testing.T) {
	rec := newRig(t, defaultCfg(LazyUpdate))
	rec.registerNop(t)
	rec.mgr.EnableRecorder(1 << 16)
	drive := func(t *testing.T, r *rig) {
		t.Helper()
		const blocks = 16
		ptr, err := r.mgr.AllocObject(AllocSpec{Size: blocks * (64 << 10), Mode: ModeAuto})
		if err != nil {
			t.Fatal(err)
		}
		ro, err := r.mgr.AllocObject(AllocSpec{Size: 64 << 10, Mode: ModeReadOnly})
		if err != nil {
			t.Fatal(err)
		}
		r.fillObject(t, ro, 1, 0x7A)
		for i := 0; i < 2*autoWindow; i++ {
			r.fillObject(t, ptr, blocks, byte(i))
			if err := r.mgr.InvokeAnnotated("nop", []mem.Addr{ptr}); err != nil {
				t.Fatal(err)
			}
			if err := r.mgr.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.mgr.AcquireRegion(ptr, ro); err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.HostWrite(ptr, []byte{0xEE}); err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.ReleaseRegion(ptr); err != nil {
			t.Fatal(err)
		}
	}
	drive(t, rec)
	l, err := rec.mgr.FinishOpLog("auto-migration")
	if err != nil {
		t.Fatal(err)
	}
	if l.Totals["ModeMigrations"] == 0 {
		t.Fatal("recorded run did not migrate; the test is vacuous")
	}
	rep := newRig(t, defaultCfg(LazyUpdate))
	report, err := rep.mgr.Replay(l, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Skipped != 0 || report.Errors != 0 {
		t.Fatalf("strict replay skipped %d, errored %d", report.Skipped, report.Errors)
	}
	if err := CompareTotals(l.Totals, rep.mgr.Stats().Counters()); err != nil {
		t.Fatal(err)
	}
}

// TestModeConformance is the mode-vs-oracle conformance check: one
// deterministic produce/consume sequence runs twice under every protocol —
// once with everything ModeReadWrite (the oracle) and once with the
// natural declarations (read-only table, write-only frame, auto state) —
// and the outputs must be byte-identical. Mode declarations may elide
// coherence work, never change results.
func TestModeConformance(t *testing.T) {
	const (
		size  = 128 << 10
		words = size / 4
		iters = 6
	)
	run := func(t *testing.T, kind ProtocolKind, moded bool) []byte {
		t.Helper()
		r := newRig(t, defaultCfg(kind))
		r.dev.Register(&accel.Kernel{
			Name: "mix",
			// args: table, frame, out, salt.
			Run: func(dev *mem.Space, args []uint64) {
				table, frame, out := mem.Addr(args[0]), mem.Addr(args[1]), mem.Addr(args[2])
				salt := uint32(args[3])
				for w := int64(0); w < words; w++ {
					v := dev.Uint32(table+mem.Addr(w*4)) + dev.Uint32(frame+mem.Addr(w*4)) + salt
					dev.SetUint32(out+mem.Addr(w*4), v)
				}
			},
		})
		mode := func(m AccessMode) AccessMode {
			if moded {
				return m
			}
			return ModeReadWrite
		}
		table, err := r.mgr.AllocObject(AllocSpec{Size: size, Mode: mode(ModeReadOnly)})
		if err != nil {
			t.Fatal(err)
		}
		frame, err := r.mgr.AllocObject(AllocSpec{Size: size, Mode: mode(ModeWriteOnly)})
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.mgr.AllocObject(AllocSpec{Size: size, Mode: mode(ModeAuto)})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = byte(i * 7)
		}
		if err := r.mgr.HostWrite(table, buf); err != nil {
			t.Fatal(err)
		}
		var digest []byte
		got := make([]byte, size)
		for i := 0; i < iters; i++ {
			for j := range buf {
				buf[j] = byte(j*3 + i*11)
			}
			if err := r.mgr.HostWrite(frame, buf); err != nil {
				t.Fatal(err)
			}
			if err := r.mgr.Invoke("mix", uint64(table), uint64(frame), uint64(out), uint64(i)); err != nil {
				t.Fatal(err)
			}
			if err := r.mgr.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := r.mgr.HostRead(out, got); err != nil {
				t.Fatal(err)
			}
			digest = append(digest, got...)
		}
		if err := r.mgr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return digest
	}
	for _, kind := range []ProtocolKind{BatchUpdate, LazyUpdate, RollingUpdate} {
		t.Run(kind.String(), func(t *testing.T) {
			oracle := run(t, kind, false)
			moded := run(t, kind, true)
			if !bytes.Equal(oracle, moded) {
				t.Fatal("mode declarations changed the computed bytes")
			}
		})
	}
}

// TestReadOnlyReplicaStress hammers a sealed read-only object from many
// goroutines while kernel calls keep running: the replicas must stay
// byte-stable and fault-free. Run with -race to check the sealed fast path
// carries no hidden writes.
func TestReadOnlyReplicaStress(t *testing.T) {
	r := newRig(t, defaultCfg(RollingUpdate))
	r.registerNop(t)
	const blocks = 8
	ptr, err := r.mgr.AllocObject(AllocSpec{Size: blocks * (64 << 10), Mode: ModeReadOnly})
	if err != nil {
		t.Fatal(err)
	}
	r.fillObject(t, ptr, blocks, 0xC4)
	if err := r.mgr.Invoke("nop"); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	base := r.mgr.Stats()
	var wg sync.WaitGroup
	errc := make(chan error, 9)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 1)
			for i := 0; i < 200; i++ {
				off := int64((g*31+i)%blocks) * (64 << 10)
				if err := r.mgr.HostRead(ptr+mem.Addr(off), buf); err != nil {
					errc <- err
					return
				}
				if buf[0] != 0xC4 {
					errc <- errors.New("sealed replica changed under concurrent reads")
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := r.mgr.Invoke("nop"); err != nil {
				errc <- err
				return
			}
			if err := r.mgr.Sync(); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if d := r.mgr.Stats().Sub(base); d.Faults != 0 || d.BytesD2H != 0 {
		t.Fatalf("stress took %d faults, %d D2H bytes on a sealed object", d.Faults, d.BytesD2H)
	}
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAutoOffBatchFollowsObjectProtocol: an Auto object on a batch-update
// manager probes out to lazy-update, and from then on the bulk, peer and
// degrade paths must ask the object — not the manager — which protocol
// governs it. Each case starts from the same state: the object migrated, a
// kernel wrote 0xBB over it, so every block is Invalid over stale 0xAA host
// bytes.
func TestAutoOffBatchFollowsObjectProtocol(t *testing.T) {
	const blocks, bs = 4, 64 << 10
	setup := func(t *testing.T) (*rig, mem.Addr) {
		t.Helper()
		r := newRig(t, defaultCfg(BatchUpdate))
		r.registerNop(t)
		r.dev.Register(&accel.Kernel{Name: "fill-bb", Run: func(dev *mem.Space, args []uint64) {
			dev.Memset(mem.Addr(args[0]), 0xBB, int64(args[1]))
		}})
		ptr, err := r.mgr.AllocObject(AllocSpec{Size: blocks * bs, Mode: ModeAuto})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.HostWrite(ptr, bytes.Repeat([]byte{0xAA}, blocks*bs)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < autoWindow*autoHysteresis; i++ {
			if err := r.mgr.Invoke("nop"); err != nil {
				t.Fatal(err)
			}
			if err := r.mgr.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if got := r.mgr.objectAt(ptr).Proto(); got != LazyUpdate {
			t.Fatalf("after %d boundaries the object runs %v, want lazy-update", autoWindow*autoHysteresis, got)
		}
		if err := r.mgr.Invoke("fill-bb", uint64(ptr), blocks*bs); err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.Sync(); err != nil {
			t.Fatal(err)
		}
		return r, ptr
	}
	// wantBlock reads one whole block through the faulting path.
	wantBlock := func(t *testing.T, r *rig, ptr mem.Addr, block int, want []byte) {
		t.Helper()
		got := make([]byte, bs)
		if err := r.mgr.HostRead(ptr+mem.Addr(block*bs), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d reads %#x…%#x, want %#x…%#x", block, got[0], got[bs-1], want[0], want[bs-1])
		}
	}
	half := func(lo, hi byte) []byte {
		return append(bytes.Repeat([]byte{lo}, bs/2), bytes.Repeat([]byte{hi}, bs/2)...)
	}

	t.Run("BulkWrite", func(t *testing.T) {
		r, ptr := setup(t)
		// One whole block and the leading half of the next.
		if err := r.mgr.BulkWrite(ptr+bs, bytes.Repeat([]byte{0xCC}, bs+bs/2)); err != nil {
			t.Fatal(err)
		}
		wantBlock(t, r, ptr, 1, half(0xCC, 0xCC))
		wantBlock(t, r, ptr, 2, half(0xCC, 0xBB))
		wantBlock(t, r, ptr, 3, half(0xBB, 0xBB))
	})
	t.Run("BulkSet", func(t *testing.T) {
		r, ptr := setup(t)
		if err := r.mgr.BulkSet(ptr+bs, 0xDD, bs+bs/2); err != nil {
			t.Fatal(err)
		}
		wantBlock(t, r, ptr, 1, half(0xDD, 0xDD))
		wantBlock(t, r, ptr, 2, half(0xDD, 0xBB))
	})
	t.Run("BulkRead", func(t *testing.T) {
		r, ptr := setup(t)
		got := make([]byte, bs)
		if err := r.mgr.BulkRead(ptr+bs, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, half(0xBB, 0xBB)) {
			t.Fatalf("BulkRead returned stale host bytes %#x, want the kernel's 0xBB", got[0])
		}
	})
	t.Run("PeerRead", func(t *testing.T) {
		r, ptr := setup(t)
		got := make([]byte, bs)
		if err := r.mgr.PeerRead(ptr+bs, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, half(0xBB, 0xBB)) {
			t.Fatalf("PeerRead returned stale host bytes %#x, want the kernel's 0xBB", got[0])
		}
	})
	t.Run("degrade", func(t *testing.T) {
		r, ptr := setup(t)
		r.dev.SetFaultInjector(fault.NewInjector(1, r.clock,
			fault.After(fault.OpLaunch, 1, fault.KindDeviceLost)))
		if err := r.mgr.Invoke("nop"); !errors.Is(err, fault.ErrDeviceLost) {
			t.Fatalf("Invoke on the dying device: %v, want ErrDeviceLost", err)
		}
		// The degraded object is host-resident: its pages must be writable.
		if err := r.mgr.HostWrite(ptr+bs, []byte("still-writable")); err != nil {
			t.Fatalf("post-loss HostWrite: %v", err)
		}
		if err := r.mgr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
