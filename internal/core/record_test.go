package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/hostmmu"
	"repro/internal/mem"
	"repro/internal/oplog"
	"repro/internal/sim"
)

// driveWorkload runs a representative mixed workload on a rig: allocation
// with a kernel binding, host writes and reads across blocks, an annotated
// and an unannotated invoke, bulk ops, peer I/O, sync, free.
func driveWorkload(t *testing.T, r *rig) {
	t.Helper()
	r.registerFill(t)
	const size = 256 << 10 // 4 blocks of 64 KiB
	a, err := r.mgr.AllocObject(AllocSpec{Size: size, Kernels: []string{"fill"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.mgr.AllocObject(AllocSpec{Size: 64 << 10, Safe: true})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8192)
	for i := range buf {
		buf[i] = byte(i * 3)
	}
	for off := int64(0); off < size; off += 32 << 10 {
		if err := r.mgr.HostWrite(a+mem.Addr(off), buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.mgr.InvokeHinted("fill", CallHints{}, uint64(a), size/4, 0x3f800000); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.HostRead(a+4096, buf); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.InvokeAnnotated("fill", []mem.Addr{a}, uint64(a), 16, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.BulkWrite(a, make([]byte, 96<<10)); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.BulkRead(a+64<<10, buf); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.BulkSet(a, 0xAB, 70<<10); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.PeerWrite(a+128<<10, buf); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.PeerRead(a+128<<10, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := r.mgr.HostBytes(b, 1024, hostmmu.AccessWrite); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordReplayRoundTrip is the core replay-determinism test: record a
// mixed workload, encode/decode the log, replay it on a fresh rig of the
// same configuration, and require identical deterministic counters.
func TestRecordReplayRoundTrip(t *testing.T) {
	for _, kind := range []ProtocolKind{BatchUpdate, LazyUpdate, RollingUpdate} {
		t.Run(kind.String(), func(t *testing.T) {
			rec := newRig(t, defaultCfg(kind))
			rec.mgr.EnableRecorder(1 << 16)
			driveWorkload(t, rec)
			l, err := rec.mgr.FinishOpLog("unit:" + kind.String())
			if err != nil {
				t.Fatal(err)
			}
			if len(l.Ops) == 0 || l.Totals == nil {
				t.Fatalf("empty log: %d ops, totals %v", len(l.Ops), l.Totals)
			}
			if l.Header.Protocol != int32(kind) {
				t.Fatalf("header protocol %d, want %d", l.Header.Protocol, kind)
			}

			// Serialisation must round-trip the stream exactly.
			decoded, err := oplog.Decode(l.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if len(decoded.Ops) != len(l.Ops) {
				t.Fatalf("decode dropped ops: %d vs %d", len(decoded.Ops), len(l.Ops))
			}

			// Replay against a fresh rig with no kernels registered: the
			// replayer must stub them.
			rep := newRig(t, defaultCfg(kind))
			report, err := rep.mgr.Replay(decoded, ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if report.Skipped != 0 || report.Errors != 0 {
				t.Fatalf("strict replay skipped %d, errored %d", report.Skipped, report.Errors)
			}
			if err := rep.mgr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := CompareTotals(l.Totals, rep.mgr.Stats().Counters()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplayTwiceIsStable: replaying the same log twice yields the same
// counters (replay itself is deterministic).
func TestReplayTwiceIsStable(t *testing.T) {
	rec := newRig(t, defaultCfg(RollingUpdate))
	rec.mgr.EnableRecorder(1 << 16)
	driveWorkload(t, rec)
	l, err := rec.mgr.FinishOpLog("stability")
	if err != nil {
		t.Fatal(err)
	}
	var totals []map[string]int64
	for i := 0; i < 2; i++ {
		rep := newRig(t, defaultCfg(RollingUpdate))
		if _, err := rep.mgr.Replay(l, ReplayOptions{}); err != nil {
			t.Fatal(err)
		}
		totals = append(totals, rep.mgr.Stats().Counters())
	}
	if err := CompareTotals(totals[0], totals[1]); err != nil {
		t.Fatal(err)
	}
}

// TestFlightHeaderWithoutRecorder: a flight dump names the protocol and
// block size of the run that filled the ring, although no recorder was
// ever installed, so adsmtrace -replay replays it under that protocol. The
// ring is process-wide, so this test must not run in parallel.
func TestFlightHeaderWithoutRecorder(t *testing.T) {
	cfg := defaultCfg(LazyUpdate)
	cfg.BlockSize = 16 << 10
	r := newRig(t, cfg)
	p, err := r.mgr.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.HostWrite(p, []byte{1}); err != nil {
		t.Fatal(err)
	}
	h := oplog.FlightLog("").Header
	if ProtocolKind(h.Protocol) != LazyUpdate || h.BlockSize != cfg.BlockSize {
		t.Fatalf("flight header says %v with %d-byte blocks, want %v with %d",
			ProtocolKind(h.Protocol), h.BlockSize, LazyUpdate, cfg.BlockSize)
	}
}

// TestFinishOpLogWrapped: an undersized capture ring must be reported, not
// silently truncated.
func TestFinishOpLogWrapped(t *testing.T) {
	r := newRig(t, defaultCfg(RollingUpdate))
	r.mgr.EnableRecorder(4)
	driveWorkload(t, r)
	if _, err := r.mgr.FinishOpLog("wrapped"); err == nil {
		t.Fatal("wrapped capture ring not reported")
	}
}

func TestFinishOpLogWithoutRecorder(t *testing.T) {
	r := newRig(t, defaultCfg(LazyUpdate))
	if _, err := r.mgr.FinishOpLog("none"); err == nil {
		t.Fatal("FinishOpLog without a recorder must fail")
	}
}

// TestRecordHotPathAllocs is the acceptance criterion: emit — the one
// booking call, as made from the fault handler with the tracer off — must
// not allocate, with and without a capture recorder installed.
func TestRecordHotPathAllocs(t *testing.T) {
	r := newRig(t, defaultCfg(RollingUpdate))
	ptr, err := r.mgr.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	o := r.mgr.ObjectAt(ptr)
	op := oplog.Op{Kind: oplog.OpFault, Flags: oplog.FlagWrite,
		Addr: ptr, Size: 65536, Arg: int64(StateInvalid)}
	if n := testing.AllocsPerRun(1000, func() { r.mgr.emit(op, o) }); n != 0 {
		t.Fatalf("emit allocates %.1f times per op without a recorder, want 0", n)
	}
	r.mgr.EnableRecorder(1 << 12)
	if n := testing.AllocsPerRun(1000, func() { r.mgr.emit(op, o) }); n != 0 {
		t.Fatalf("emit allocates %.1f times per op with a recorder, want 0", n)
	}
}

// TestFaultPathAllocs pins the end-to-end fault service path — signal
// delivery, span search, state transition, rolling-cache push, mprotect,
// record with lane attribution — at zero allocations, the guarantee the
// noalloc analyzer audits statically.
func TestFaultPathAllocs(t *testing.T) {
	cfg := defaultCfg(RollingUpdate)
	cfg.BlockSize = 4 << 10
	r := newRig(t, cfg)
	ptr, err := r.mgr.Alloc(32 << 20)
	if err != nil {
		t.Fatal(err)
	}
	one := []byte{1}
	off := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		// Each write hits a fresh ReadOnly block: one write fault each.
		if err := r.mgr.HostWrite(ptr+mem.Addr(off), one); err != nil {
			t.Fatal(err)
		}
		off += 4 << 10
	}); n != 0 {
		t.Fatalf("fault path allocates %.1f times per fault, want 0", n)
	}
}

// TestRecordedStreamShape sanity-checks the recorded op mix of a workload.
func TestRecordedStreamShape(t *testing.T) {
	r := newRig(t, defaultCfg(RollingUpdate))
	r.mgr.EnableRecorder(1 << 16)
	driveWorkload(t, r)
	l, err := r.mgr.FinishOpLog("shape")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[oplog.Kind]int{}
	var lastAt sim.Time
	for _, op := range l.Ops {
		counts[op.Kind]++
		if op.At < lastAt {
			// Single-goroutine workload: timestamps must be monotonic.
			t.Fatalf("timestamps went backwards: %v after %v", op.At, lastAt)
		}
		lastAt = op.At
	}
	for _, want := range []oplog.Kind{
		oplog.OpAlloc, oplog.OpFree, oplog.OpHostRead, oplog.OpHostWrite,
		oplog.OpHostAccess, oplog.OpBulkRead, oplog.OpBulkWrite, oplog.OpBulkSet,
		oplog.OpIORead, oplog.OpIOWrite, oplog.OpAnnotate, oplog.OpArg,
		oplog.OpInvoke, oplog.OpSync, oplog.OpFault, oplog.OpFlush,
	} {
		if counts[want] == 0 {
			t.Errorf("workload recorded no %v ops", want)
		}
	}
	if counts[oplog.OpAlloc] != 2 || counts[oplog.OpInvoke] != 2 {
		t.Errorf("allocs %d (want 2), invokes %d (want 2)",
			counts[oplog.OpAlloc], counts[oplog.OpInvoke])
	}
	// The first invoke passed 3 args, the second 3 more.
	if counts[oplog.OpArg] != 6 {
		t.Errorf("args %d, want 6", counts[oplog.OpArg])
	}
	if counts[oplog.OpAnnotate] != 1 {
		t.Errorf("annotations %d, want 1", counts[oplog.OpAnnotate])
	}
}

// TestReplayLenientSkipsUnknownObjects: a flight-style window missing its
// allocations must replay as far as it can.
func TestReplayLenientSkipsUnknownObjects(t *testing.T) {
	rec := newRig(t, defaultCfg(RollingUpdate))
	rec.mgr.EnableRecorder(1 << 16)
	driveWorkload(t, rec)
	l, err := rec.mgr.FinishOpLog("lenient")
	if err != nil {
		t.Fatal(err)
	}
	// Chop off the front half, as a wrapped flight ring would.
	l.Ops = l.Ops[len(l.Ops)/2:]
	l.Header.Flags |= oplog.HdrFlight

	rep := newRig(t, defaultCfg(RollingUpdate))
	report, err := rep.mgr.Replay(l, ReplayOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if report.Skipped == 0 {
		t.Fatal("truncated window replayed without skips — test premise broken")
	}
	if err := rep.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Strict mode must refuse the same window.
	rep2 := newRig(t, defaultCfg(RollingUpdate))
	if _, err := rep2.mgr.Replay(l, ReplayOptions{}); err == nil {
		t.Fatal("strict replay accepted a window with unknown objects")
	}
}

// TestReplayRefusesRetiredOps: a stream holding a region-scope kind, a
// write-only hint, a mode migration or an Auto-mode allocation, whose
// numbers stay reserved, still decodes, but Replay fails on it in strict
// and lenient mode alike, with an error naming the retired op rather than
// skipping it or blaming a missing allocation.
func TestReplayRefusesRetiredOps(t *testing.T) {
	rec := newRig(t, defaultCfg(LazyUpdate))
	rec.mgr.EnableRecorder(1 << 16)
	driveWorkload(t, rec)
	l, err := rec.mgr.FinishOpLog("retired")
	if err != nil {
		t.Fatal(err)
	}
	alloc := slices.IndexFunc(l.Ops, func(op oplog.Op) bool { return op.Kind == oplog.OpAlloc })
	if alloc < 0 {
		t.Fatal("recorded stream has no allocation")
	}
	obj, addr := l.Ops[alloc].Obj, l.Ops[alloc].Addr
	for _, tc := range []struct {
		name string
		op   oplog.Op
	}{
		{"region-ptr", oplog.Op{Kind: oplog.OpRegionPtr, Obj: obj, Addr: addr}},
		{"region-acquire", oplog.Op{Kind: oplog.OpRegionAcquire, Arg: 1}},
		{"region-release", oplog.Op{Kind: oplog.OpRegionRelease, Arg: 1}},
		{"write-only hint", oplog.Op{Kind: oplog.OpAnnotate, Flags: oplog.FlagHintWriteOnly, Obj: obj, Addr: addr}},
		{"mode-migrate", oplog.Op{Kind: oplog.OpModeMigrate, Obj: obj, Addr: addr, Arg: int64(LazyUpdate)<<8 | int64(RollingUpdate)}},
		{"auto-mode alloc", oplog.Op{Kind: oplog.OpAlloc, Obj: obj + 1, Size: 64 << 10, Arg: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := *l
			bad.Ops = slices.Insert(slices.Clone(l.Ops), alloc+1, tc.op)
			decoded, err := oplog.Decode(bad.Encode())
			if err != nil {
				t.Fatalf("a stream with a reserved kind must still decode: %v", err)
			}
			for _, lenient := range []bool{false, true} {
				rep := newRig(t, defaultCfg(LazyUpdate))
				_, err := rep.mgr.Replay(decoded, ReplayOptions{Lenient: lenient})
				if err == nil || !strings.Contains(err.Error(), "retired "+tc.name) {
					t.Fatalf("lenient=%v: got %v, want an error naming the retired %s", lenient, err, tc.name)
				}
			}
		})
	}
}

// TestCompareTotals covers the divergence reporter.
func TestCompareTotals(t *testing.T) {
	a := map[string]int64{"Faults": 3, "BytesH2D": 100}
	if err := CompareTotals(a, map[string]int64{"Faults": 3, "BytesH2D": 100}); err != nil {
		t.Fatal(err)
	}
	if err := CompareTotals(a, map[string]int64{"Faults": 4, "BytesH2D": 100}); err == nil {
		t.Fatal("divergence not reported")
	}
	if err := CompareTotals(a, map[string]int64{"Faults": 3, "BytesH2D": 100, "Extra": 1}); err == nil {
		t.Fatal("extra counter not reported")
	}
}

// TestStatsCounters: sim.Time fields are excluded, int64 counters included.
func TestStatsCounters(t *testing.T) {
	s := Stats{Faults: 7, BytesH2D: 123, H2DWait: 999, SearchTime: 5}
	c := s.Counters()
	if c["Faults"] != 7 || c["BytesH2D"] != 123 {
		t.Fatalf("counters missing: %v", c)
	}
	for _, banned := range []string{"H2DWait", "D2HWait", "H2DDrain", "SearchTime"} {
		if _, ok := c[banned]; ok {
			t.Fatalf("virtual-time field %s leaked into Counters", banned)
		}
	}
}
