package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/hostmmu"
	"repro/internal/mem"
)

// checkCleanPages is the write-back invariant the page mask rests on: on
// every live, non-degraded block that is current, device bytes equal host
// bytes on every page whose dirty bit is clear, but for the pages the host
// owes (their host bytes are not a copy yet). It is a test helper, not
// part of CheckInvariants, because it reads every clean page of both
// copies.
func checkCleanPages(m *Manager) error {
	for _, o := range m.reg.snapshot() {
		o.mu.Lock()
		err := checkCleanObject(m, o)
		o.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// checkCleanObject is checkCleanPages on one object. The caller holds o.mu.
func checkCleanObject(m *Manager, o *Object) error {
	if o.dead || o.degraded.Load() {
		return nil
	}
	ps := int64(1) << o.pageShift
	dev := make([]byte, ps)
	for _, b := range o.blocks {
		if !b.current {
			continue
		}
		for off := int64(0); off < b.size; off += ps {
			addr := b.addr + mem.Addr(off)
			if p, _ := o.pages(addr, 1); o.dirty[p>>6]&(1<<(p&63)) != 0 || o.owed != nil && o.owes(p, p) {
				continue
			}
			n := min(ps, b.size-off)
			m.dev.ReadBytes(b.devAddr()+mem.Addr(off), dev[:n])
			if !bytes.Equal(o.mapping.Space.Bytes(addr, n), dev[:n]) {
				return fmt.Errorf("core: current %v block %#x: clean page %#x differs on the device",
					b.state, uint64(b.addr), uint64(addr))
			}
		}
	}
	return nil
}

// TestWriteBackSeesHostBytes covers every way the host writes shared
// memory, under each protocol, each followed by a kernel call: the kernel
// must see exactly the host's bytes. The object is primed first (written,
// transformed by a kernel, read back), so its blocks are current and a
// write-back copies only the pages the case dirtied.
func TestWriteBackSeesHostBytes(t *testing.T) {
	const size = 64 << 10
	// mid lies inside the second of four 16 KiB blocks, off a page boundary;
	// span from there covers part of it, all of the third, part of the
	// fourth.
	const mid, span = 20<<10 + 100, 40 << 10

	// prime allocates an object, writes it, runs the xor kernel over it and
	// reads it all back, returning the pointer and the flat model.
	prime := func(t *testing.T, r *rig, mode AccessMode) (mem.Addr, []byte) {
		t.Helper()
		p, err := r.mgr.AllocObject(AllocSpec{Size: size, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		ref := wbPattern(size, 1)
		if err := r.mgr.HostWrite(p, ref); err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.InvokeHinted("wb.xor", CallHints{}, uint64(p), size); err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.Sync(); err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			ref[i] ^= 0x5a
		}
		if mode == ModeWriteOnly {
			return p, ref
		}
		got := make([]byte, size)
		if err := r.mgr.HostRead(p, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatal("primed object does not read back the kernel's bytes")
		}
		return p, ref
	}
	// wholeBlock returns the offset and host bytes of the block holding
	// p+off: the cases that leave a block not current send it back whole,
	// unwritten bytes included.
	wholeBlock := func(r *rig, p mem.Addr, off int64) (int64, []byte) {
		b := r.mgr.reg.objectAt(p).BlockAt(p + mem.Addr(off))
		return int64(b.addr - p), bytes.Clone(b.hostBytes())
	}
	lose := func(r *rig) { r.mgr.markDeviceLost(errors.New("test: device lost")) }

	// Each case writes and returns the object, the offset of the range the
	// kernel checks, the bytes it must see there, and whether the device is
	// lost (the call then fails and the host copy is checked instead).
	type outcome struct {
		p    mem.Addr
		off  int64
		want []byte
		lost bool
	}
	cases := []struct {
		name string
		run  func(t *testing.T, r *rig) outcome
	}{
		{"HostWrite", func(t *testing.T, r *rig) outcome {
			p, ref := prime(t, r, ModeReadWrite)
			data := wbPattern(300, 7)
			must(t, r.mgr.HostWrite(p+mid, data))
			copy(ref[mid:], data)
			return outcome{p: p, want: ref}
		}},
		{"HostBytes", func(t *testing.T, r *rig) outcome {
			p, ref := prime(t, r, ModeReadWrite)
			b, err := r.mgr.HostBytes(p+mid, 300, hostmmu.AccessWrite)
			must(t, err)
			copy(b, wbPattern(300, 7))
			copy(ref[mid:], b)
			return outcome{p: p, want: ref}
		}},
		{"BulkWrite", func(t *testing.T, r *rig) outcome {
			p, ref := prime(t, r, ModeReadWrite)
			data := wbPattern(span, 3)
			must(t, r.mgr.BulkWrite(p+mid, data))
			copy(ref[mid:], data)
			return outcome{p: p, want: ref}
		}},
		{"BulkSet", func(t *testing.T, r *rig) outcome {
			p, ref := prime(t, r, ModeReadWrite)
			must(t, r.mgr.BulkSet(p+mid, 0xc3, span))
			copy(ref[mid:], bytes.Repeat([]byte{0xc3}, span))
			return outcome{p: p, want: ref}
		}},
		{"PeerWrite", func(t *testing.T, r *rig) outcome {
			p, ref := prime(t, r, ModeReadWrite)
			data := wbPattern(span, 5)
			must(t, r.mgr.PeerWrite(p+mid, data))
			copy(ref[mid:], data)
			return outcome{p: p, want: ref}
		}},
		{"BulkWrite/degraded", func(t *testing.T, r *rig) outcome {
			p, ref := prime(t, r, ModeReadWrite)
			lose(r)
			data := wbPattern(span, 3)
			must(t, r.mgr.BulkWrite(p+mid, data))
			copy(ref[mid:], data)
			return outcome{p: p, want: ref, lost: true}
		}},
		{"BulkSet/degraded", func(t *testing.T, r *rig) outcome {
			p, ref := prime(t, r, ModeReadWrite)
			lose(r)
			must(t, r.mgr.BulkSet(p+mid, 0xc3, span))
			copy(ref[mid:], bytes.Repeat([]byte{0xc3}, span))
			return outcome{p: p, want: ref, lost: true}
		}},
		{"PeerWrite/degraded", func(t *testing.T, r *rig) outcome {
			p, ref := prime(t, r, ModeReadWrite)
			lose(r)
			data := wbPattern(span, 5)
			must(t, r.mgr.PeerWrite(p+mid, data))
			copy(ref[mid:], data)
			return outcome{p: p, want: ref, lost: true}
		}},
		{"WriteOnlyElidedFetch", func(t *testing.T, r *rig) outcome {
			// The kernel changed the device copy behind an Invalid block; the
			// write fault skips the fetch, so the block goes back whole.
			p, _ := prime(t, r, ModeWriteOnly)
			must(t, r.mgr.HostWrite(p+mid, wbPattern(300, 7)))
			off, want := wholeBlock(r, p, mid)
			return outcome{p: p, off: off, want: want}
		}},
		{"FreshObject", func(t *testing.T, r *rig) outcome {
			// The new object's device range holds the freed one's bytes.
			q, _ := prime(t, r, ModeReadWrite)
			must(t, r.mgr.Free(q))
			p, err := r.mgr.Alloc(size)
			must(t, err)
			must(t, r.mgr.HostWrite(p+mid, wbPattern(300, 7)))
			off, want := wholeBlock(r, p, mid)
			return outcome{p: p, off: off, want: want}
		}},
		{"CorruptRetry", func(t *testing.T, r *rig) outcome {
			// The first write-back attempt scribbles the whole device range.
			p, ref := prime(t, r, ModeReadWrite)
			data := wbPattern(300, 7)
			must(t, r.mgr.HostWrite(p+mid, data))
			copy(ref[mid:], data)
			r.dev.SetFaultInjector(fault.NewInjector(1, r.clock,
				fault.Nth(fault.OpDMAH2D, 1, fault.KindCorrupt)))
			return outcome{p: p, want: ref}
		}},
	}
	for _, kind := range []ProtocolKind{BatchUpdate, LazyUpdate, RollingUpdate} {
		for _, tc := range cases {
			t.Run(kind.String()+"/"+tc.name, func(t *testing.T) {
				cfg := defaultCfg(kind)
				cfg.BlockSize = 16 << 10
				r := newRig(t, cfg)
				var seen []byte
				r.dev.Register(&accel.Kernel{Name: "wb.snap", Run: func(dev *mem.Space, args []uint64) {
					seen = bytes.Clone(dev.Bytes(mem.Addr(args[0]), int64(args[1])))
				}})
				r.dev.Register(&accel.Kernel{Name: "wb.xor", Run: func(dev *mem.Space, args []uint64) {
					buf := dev.Bytes(mem.Addr(args[0]), int64(args[1]))
					for i := range buf {
						buf[i] ^= 0x5a
					}
				}})
				out := tc.run(t, r)
				at := out.p + mem.Addr(out.off)
				err := r.mgr.InvokeHinted("wb.snap", CallHints{}, uint64(at), uint64(len(out.want)))
				if out.lost {
					if !errors.Is(err, fault.ErrDeviceLost) {
						t.Fatalf("Invoke on a lost device: %v", err)
					}
					seen = make([]byte, len(out.want))
					must(t, r.mgr.HostRead(at, seen))
				} else {
					must(t, err)
				}
				if i := diffAt(seen, out.want); i >= 0 {
					t.Fatalf("byte %d of the checked range: got %#x, want %#x", out.off+int64(i), seen[i], out.want[i])
				}
				must(t, checkCleanPages(r.mgr))
			})
		}
	}
}

// wbPattern returns n bytes that differ from their neighbours and from
// other seeds' patterns.
func wbPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31) ^ seed
	}
	return b
}

// diffAt returns the first index where a and b differ, or -1.
func diffAt(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
