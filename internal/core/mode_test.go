package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/accel"
	"repro/internal/hostmmu"
	"repro/internal/mem"
)

func (r *rig) registerNop(tb testing.TB) {
	tb.Helper()
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
			if err := r.mgr.InvokeHinted("nop", CallHints{}); err != nil {
				t.Fatal(err)
			}
			if err := r.mgr.Sync(); err != nil {
				t.Fatal(err)
			}
			base := r.mgr.Stats()
			buf := make([]byte, 1)
			for i := 0; i < 5; i++ {
				if err := r.mgr.InvokeHinted("nop", CallHints{}); err != nil {
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

// TestSealRejectsEveryHostWrite: after the seal, a write of the whole object
// through any host entry point — interposed memset and memcpy, peer DMA, the
// faulting store, a writable view — fails with ErrModeViolation before it
// touches either copy. Both copies keep the sealed bytes, nothing faults or
// moves, and the invariants hold, under every protocol.
func TestSealRejectsEveryHostWrite(t *testing.T) {
	const size = 4 * (64 << 10)
	writes := []struct {
		name  string
		write func(m *Manager, p mem.Addr, src []byte) error
	}{
		{"BulkSet", func(m *Manager, p mem.Addr, src []byte) error { return m.BulkSet(p, src[0], size) }},
		{"BulkWrite", (*Manager).BulkWrite},
		{"PeerWrite", (*Manager).PeerWrite},
		{"HostWrite", (*Manager).HostWrite},
		{"HostBytes", func(m *Manager, p mem.Addr, src []byte) error {
			_, err := m.HostBytes(p, size, hostmmu.AccessWrite)
			return err
		}},
	}
	sealed := bytes.Repeat([]byte{0x5E}, size)
	for _, kind := range []ProtocolKind{BatchUpdate, LazyUpdate, RollingUpdate} {
		for _, w := range writes {
			t.Run(kind.String()+"/"+w.name, func(t *testing.T) {
				r := newRig(t, defaultCfg(kind))
				r.registerNop(t)
				ptr, err := r.mgr.AllocObject(AllocSpec{Size: size, Mode: ModeReadOnly})
				if err != nil {
					t.Fatal(err)
				}
				if err := r.mgr.HostWrite(ptr, sealed); err != nil {
					t.Fatal(err)
				}
				if err := r.mgr.InvokeHinted("nop", CallHints{}); err != nil { // first release: flush and seal
					t.Fatal(err)
				}
				if err := r.mgr.Sync(); err != nil {
					t.Fatal(err)
				}
				base := r.mgr.Stats()
				if err := w.write(r.mgr, ptr, bytes.Repeat([]byte{0x77}, size)); !errors.Is(err, ErrModeViolation) {
					t.Fatalf("%s after the seal: got %v, want ErrModeViolation", w.name, err)
				}
				if d := r.mgr.Stats().Sub(base); d != (Stats{}) {
					t.Errorf("rejected %s still counted activity: %+v", w.name, d)
				}
				o := r.mgr.ObjectAt(ptr)
				host, dev := make([]byte, size), make([]byte, size)
				o.mapping.Space.Read(ptr, host)
				r.dev.Memory().Read(o.devAddr, dev)
				if !bytes.Equal(host, sealed) || !bytes.Equal(dev, sealed) {
					t.Errorf("rejected %s changed the object: host[0]=%#x dev[0]=%#x, want %#x", w.name, host[0], dev[0], sealed[0])
				}
				if err := r.mgr.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
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
	if err := r.mgr.InvokeHinted("nop", CallHints{}); err != nil {
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

// TestReadOnlyHintKeepsHostCopy pins §4.3's per-call narrowing: across an
// unannotated call, an object hinted read-only keeps its host copy valid,
// so the next read takes no fault and no D2H transfer, while an unhinted
// object is invalidated and faults its data back. Batch-update re-fetches
// every object at Sync whatever the hint, so only the detecting protocols
// can show the difference.
func TestReadOnlyHintKeepsHostCopy(t *testing.T) {
	for _, kind := range []ProtocolKind{LazyUpdate, RollingUpdate} {
		t.Run(kind.String(), func(t *testing.T) {
			r := newRig(t, defaultCfg(kind))
			r.registerNop(t)
			hinted := r.alloc(t, AllocSpec{Size: 64 << 10})
			plain := r.alloc(t, AllocSpec{Size: 64 << 10})
			r.fillObject(t, hinted, 1, 0x11)
			r.fillObject(t, plain, 1, 0x22)
			r.call(t, CallHints{ReadOnly: []mem.Addr{hinted}})

			read := func(p mem.Addr, want byte) Stats {
				t.Helper()
				base := r.mgr.Stats()
				got := make([]byte, 1)
				if err := r.mgr.HostRead(p, got); err != nil {
					t.Fatal(err)
				}
				if got[0] != want {
					t.Fatalf("read %#x, want %#x", got[0], want)
				}
				return r.mgr.Stats().Sub(base)
			}
			if d := read(hinted, 0x11); d.Faults != 0 || d.BytesD2H != 0 {
				t.Fatalf("hinted object: %d faults, %d B D2H after the call, want 0 and 0", d.Faults, d.BytesD2H)
			}
			if d := read(plain, 0x22); d.Faults != 1 || d.BytesD2H == 0 {
				t.Fatalf("unhinted object: %d faults, %d B D2H after the call, want 1 fault and a fetch", d.Faults, d.BytesD2H)
			}
			if err := r.mgr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWritesAndReadOnlyHintContradict: a call that lists an object in its
// write set and also hints it read-only is rejected with ErrModeViolation
// before anything runs, under every protocol. Letting the hint win would
// keep the host copy valid over the kernel's writes, so lazy- and
// rolling-update would read the stale host value afterwards.
func TestWritesAndReadOnlyHintContradict(t *testing.T) {
	for _, kind := range []ProtocolKind{BatchUpdate, LazyUpdate, RollingUpdate} {
		t.Run(kind.String(), func(t *testing.T) {
			r := newRig(t, defaultCfg(kind))
			r.registerFill(t)
			p := r.alloc(t, AllocSpec{Size: 64 << 10})
			if err := r.mgr.HostWrite(p, []byte{1, 0, 0, 0}); err != nil {
				t.Fatal(err)
			}
			base := r.mgr.Stats()
			h := CallHints{Writes: []mem.Addr{p}, Annotated: true, ReadOnly: []mem.Addr{p}}
			if err := r.mgr.InvokeHinted("fill", h, uint64(p), 1, 7); !errors.Is(err, ErrModeViolation) {
				t.Fatalf("Writes and ReadOnlyHint on one object: got %v, want ErrModeViolation", err)
			}
			if err := r.mgr.Sync(); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 1)
			if err := r.mgr.HostRead(p, got); err != nil {
				t.Fatal(err)
			}
			if d := r.mgr.Stats().Sub(base); d.Invokes != 0 || got[0] != 1 {
				t.Fatalf("rejected call ran: %d invokes, host reads %d, want 0 and 1", d.Invokes, got[0])
			}
		})
	}
}

// mixSize is the size of each object modeSequence mixes.
const mixSize = 128 << 10

// registerMix registers "mix", which sets every word of out to the sum of
// the table's and the frame's word plus a salt. args: table, frame, out,
// salt.
func (r *rig) registerMix() {
	r.dev.Register(&accel.Kernel{
		Name: "mix",
		Run: func(dev *mem.Space, args []uint64) {
			table, frame, out := mem.Addr(args[0]), mem.Addr(args[1]), mem.Addr(args[2])
			salt := uint32(args[3])
			for w := int64(0); w < mixSize/4; w++ {
				v := dev.Uint32(table+mem.Addr(w*4)) + dev.Uint32(frame+mem.Addr(w*4)) + salt
				dev.SetUint32(out+mem.Addr(w*4), v)
			}
		},
	})
}

// modeSequence is a deterministic produce/consume sequence on r: a table
// written once, then six rounds that rewrite the frame, call mix and read
// out back. With moded the table is declared ModeReadOnly and the frame
// ModeWriteOnly; otherwise every object is ModeReadWrite. fill writes the
// bytes of the n-th host write into buf (n is 0 for the table). It returns
// the outputs of every round, concatenated, and out's address.
func modeSequence(t *testing.T, r *rig, moded bool, fill func(n int, buf []byte)) ([]byte, mem.Addr) {
	t.Helper()
	r.registerMix()
	mode := func(m AccessMode) AccessMode {
		if moded {
			return m
		}
		return ModeReadWrite
	}
	table := r.alloc(t, AllocSpec{Size: mixSize, Mode: mode(ModeReadOnly)})
	frame := r.alloc(t, AllocSpec{Size: mixSize, Mode: mode(ModeWriteOnly)})
	out := r.alloc(t, AllocSpec{Size: mixSize})
	buf := make([]byte, mixSize)
	fill(0, buf)
	if err := r.mgr.HostWrite(table, buf); err != nil {
		t.Fatal(err)
	}
	var digest []byte
	got := make([]byte, mixSize)
	for i := 0; i < 6; i++ {
		fill(i+1, buf)
		if err := r.mgr.HostWrite(frame, buf); err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.InvokeHinted("mix", CallHints{}, uint64(table), uint64(frame), uint64(out), uint64(i)); err != nil {
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
	return digest, out
}

// TestModeConformance is the mode-vs-oracle conformance check: modeSequence
// runs twice under every protocol — once with everything ModeReadWrite (the
// oracle) and once with the natural declarations (read-only table,
// write-only frame) — and the outputs must be byte-identical. Mode
// declarations may elide coherence work, never change results.
func TestModeConformance(t *testing.T) {
	fill := func(n int, buf []byte) {
		for j := range buf {
			if n == 0 {
				buf[j] = byte(j * 7)
			} else {
				buf[j] = byte(j*3 + (n-1)*11)
			}
		}
	}
	for _, kind := range []ProtocolKind{BatchUpdate, LazyUpdate, RollingUpdate} {
		t.Run(kind.String(), func(t *testing.T) {
			oracle, _ := modeSequence(t, newRig(t, defaultCfg(kind)), false, fill)
			moded, _ := modeSequence(t, newRig(t, defaultCfg(kind)), true, fill)
			if !bytes.Equal(oracle, moded) {
				t.Fatal("mode declarations changed the computed bytes")
			}
		})
	}
}

// TestReplayKeepsDeclaredModes records modeSequence with its declarations
// under every protocol and strict-replays the stream on a fresh rig: the
// replay must reproduce every counter total, FetchElisions included, and
// leave the same bytes in out. The recorded writes carry the replayer's
// own byte pattern, so both runs compute on the same inputs.
func TestReplayKeepsDeclaredModes(t *testing.T) {
	pattern := func(_ int, buf []byte) {
		for j := range buf {
			buf[j] = byte(j)
		}
	}
	for _, kind := range []ProtocolKind{BatchUpdate, LazyUpdate, RollingUpdate} {
		t.Run(kind.String(), func(t *testing.T) {
			rec := newRig(t, defaultCfg(kind))
			rec.mgr.EnableRecorder(1 << 16)
			digest, out := modeSequence(t, rec, true, pattern)
			l, err := rec.mgr.FinishOpLog("modes:" + kind.String())
			if err != nil {
				t.Fatal(err)
			}
			if l.Totals["FetchElisions"] == 0 {
				t.Fatal("recorded run elided no fetch; the test is vacuous")
			}
			rep := newRig(t, defaultCfg(kind))
			rep.registerMix()
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
			got := make([]byte, mixSize)
			if err := rep.mgr.HostRead(out, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, digest[len(digest)-mixSize:]) {
				t.Fatal("replayed run left different bytes in out")
			}
		})
	}
}

// TestWriteOnlyReadOfInvalidFails: once a call has invalidated a
// ModeWriteOnly object, every host read path refuses its Invalid data with
// ErrModeViolation before it moves a byte: the faulting read, a readable
// view, the interposed memcpy and peer DMA alike. Batch-update is left out:
// its objects are host-authoritative, so a read never sees Invalid data.
func TestWriteOnlyReadOfInvalidFails(t *testing.T) {
	reads := []struct {
		name string
		read func(m *Manager, p mem.Addr, dst []byte) error
	}{
		{"HostRead", (*Manager).HostRead},
		{"HostBytes", func(m *Manager, p mem.Addr, dst []byte) error {
			_, err := m.HostBytes(p, int64(len(dst)), hostmmu.AccessRead)
			return err
		}},
		{"BulkRead", (*Manager).BulkRead},
		{"PeerRead", (*Manager).PeerRead},
	}
	for _, kind := range []ProtocolKind{LazyUpdate, RollingUpdate} {
		for _, rd := range reads {
			t.Run(kind.String()+"/"+rd.name, func(t *testing.T) {
				r := newRig(t, defaultCfg(kind))
				r.registerNop(t)
				const blocks = 2
				ptr := r.alloc(t, AllocSpec{Size: blocks * (64 << 10), Mode: ModeWriteOnly})
				r.fillObject(t, ptr, blocks, 0xA1)
				r.call(t, CallHints{}) // unannotated: the object is invalidated
				base := r.mgr.Stats()
				if err := rd.read(r.mgr, ptr, make([]byte, 16)); !errors.Is(err, ErrModeViolation) {
					t.Fatalf("%s of Invalid write-only data: got %v, want ErrModeViolation", rd.name, err)
				}
				if d := r.mgr.Stats().Sub(base); d.BytesD2H != 0 || d.PeerBytesOut != 0 {
					t.Fatalf("refused %s moved %d B D2H and %d B over the peer path", rd.name, d.BytesD2H, d.PeerBytesOut)
				}
				if err := r.mgr.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
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
	if err := r.mgr.InvokeHinted("nop", CallHints{}); err != nil {
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
			if err := r.mgr.InvokeHinted("nop", CallHints{}); err != nil {
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
