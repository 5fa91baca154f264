package core

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/hostmmu"
	"repro/internal/mem"
)

// registerOwedXor registers "owed.xor": args = k, then (ptr, n) pairs; it
// XORs byte i of each range with byte(i*7+k), so the result depends on what
// the device held before.
func registerOwedXor(r *rig) {
	r.dev.Register(&accel.Kernel{
		Name: "owed.xor",
		Run: func(dev *mem.Space, args []uint64) {
			k := args[0]
			for a := args[1:]; len(a) >= 2; a = a[2:] {
				buf := dev.Bytes(mem.Addr(a[0]), int64(a[1]))
				for i := range buf {
					buf[i] ^= byte(uint64(i)*7 + k)
				}
			}
		},
		Cost: accel.FixedCost(1e5, 1<<16),
	})
}

// owedXor applies owed.xor to the flat model of one object.
func owedXor(ref []byte, k uint64) {
	for i := range ref {
		ref[i] ^= byte(uint64(i)*7 + k)
	}
}

// TestOwedPagesMatchFlatModel is the differential test of copy-back on
// first touch: after a kernel writes two objects, the host reads one page
// (which under batch-update copies it into dst and leaves it owed), writes
// across a page boundary, bulk-reads across owed and pulled pages,
// peer-reads an owed page and sums a typed view (Float32View.Sum's
// HostBytes read, which pulls its pages), then two more calls follow.
// Every byte must match a flat model under each protocol. A page fetched
// but never written or viewed must never have been copied: its host
// backing still holds the bytes from before the kernel. Under
// batch-update that holds for all of the object the host never touched
// after the acquire; under lazy- and rolling-update for the pages of the
// first object that its faults fetched and the host only read. Under
// batch-update the second call's window also takes a host write, which the
// acquire overwrites with the kernel's bytes (it owes the page, and the
// write must not stay dirty to be sent at the third call).
func TestOwedPagesMatchFlatModel(t *testing.T) {
	const size = 12*testPage + 100 // the last page is short
	const usize = 8 * testPage
	for _, kind := range []ProtocolKind{BatchUpdate, LazyUpdate, RollingUpdate} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := defaultCfg(kind)
			cfg.BlockSize = 4 * testPage
			r := newRig(t, cfg)
			registerOwedXor(r)
			a, err := r.mgr.Alloc(size)
			must(t, err)
			u, err := r.mgr.Alloc(usize)
			must(t, err)
			ref, uref := wbPattern(size, 1), wbPattern(usize, 2)
			must(t, r.mgr.HostWrite(a, ref))
			must(t, r.mgr.HostWrite(u, uref))
			before, abefore := append([]byte(nil), uref...), append([]byte(nil), ref...)

			call := func(k uint64) {
				t.Helper()
				must(t, r.mgr.InvokeHinted("owed.xor", CallHints{}, k, uint64(a), size, uint64(u), usize))
				must(t, r.mgr.Sync())
				owedXor(ref, k)
				owedXor(uref, k)
				must(t, r.mgr.CheckInvariants())
				must(t, checkCleanPages(r.mgr))
			}
			check := func(what string, off int64, got []byte) {
				t.Helper()
				must(t, r.mgr.CheckInvariants())
				if i := diffAt(got, ref[off:off+int64(len(got))]); i >= 0 {
					t.Fatalf("%s: byte %d reads %#x, the model holds %#x", what, off+int64(i), got[i], ref[off+int64(i)])
				}
			}
			untouched := func() {
				t.Helper()
				if kind != BatchUpdate {
					return
				}
				o := r.mgr.objectAt(u)
				if pages := int(usize / testPage); o.owedPages != pages {
					t.Fatalf("untouched object owes %d pages, want all %d", o.owedPages, pages)
				}
				if i := diffAt(o.mapping.Space.Bytes(u, usize), before); i >= 0 {
					t.Fatalf("untouched object's host byte %d was copied: %#x, before the kernel %#x",
						i, o.mapping.Space.Bytes(u, usize)[i], before[i])
				}
			}

			// neverCopied checks that a's owed pages are exactly want and
			// that each still holds its bytes from before the first kernel.
			neverCopied := func(what string, want ...uint64) {
				t.Helper()
				o := r.mgr.objectAt(a)
				var got []uint64
				for p := uint64(0); p*testPage < size; p++ {
					if !o.owes(p, p) {
						continue
					}
					got = append(got, p)
					off, end := int64(p)*testPage, min(int64(p+1)*testPage, size)
					if i := diffAt(o.mapping.Space.Bytes(a+mem.Addr(off), end-off), abefore[off:end]); i >= 0 {
						t.Fatalf("%s: owed page %d was copied: host byte %d differs from before the kernel", what, p, off+int64(i))
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: the object owes pages %v, want %v", what, got, want)
				}
			}
			pageRange := func(lo, hi uint64) []uint64 {
				var ps []uint64
				for p := lo; p < hi; p++ {
					ps = append(ps, p)
				}
				return ps
			}

			call(3)
			untouched()
			if kind == BatchUpdate {
				neverCopied("after the acquire", pageRange(0, 13)...)
			}

			// One page: a read copies it from the device into dst alone.
			// Under lazy-update its fault fetched the whole object, under
			// rolling-update block 0, and neither landed a byte.
			page := make([]byte, testPage)
			must(t, r.mgr.HostRead(a+testPage, page))
			check("HostRead", testPage, page)
			if kind == RollingUpdate {
				neverCopied("after a read fault", pageRange(0, 4)...)
			} else {
				neverCopied("after a read", pageRange(0, 13)...)
			}

			// A write across the boundary of pages 2 and 3.
			w := wbPattern(100, 9)
			off := int64(3*testPage - 50)
			must(t, r.mgr.HostWrite(a+mem.Addr(off), w))
			copy(ref[off:], w)

			// Pages 0, 1 and 4 are owed, 2 and 3 pulled by the write.
			bulk := make([]byte, 4*testPage+20)
			must(t, r.mgr.BulkRead(a+testPage-10, bulk))
			check("BulkRead", testPage-10, bulk)

			// An owed page by peer DMA.
			peer := make([]byte, 3000)
			must(t, r.mgr.PeerRead(a+5*testPage+7, peer))
			check("PeerRead", 5*testPage+7, peer)

			// A typed view over pages 8 and 9.
			view, err := r.mgr.HostBytes(a+8*testPage, 2*testPage, hostmmu.AccessRead)
			must(t, err)
			var got, want float64
			for i := 0; i < len(view); i += 4 {
				got += float64(math.Float32frombits(binary.LittleEndian.Uint32(view[i:])))
				want += float64(math.Float32frombits(binary.LittleEndian.Uint32(ref[8*testPage+i:])))
			}
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("view sum %v, the model's %v", got, want)
			}
			check("HostBytes", 8*testPage, view)
			untouched()
			// The write pulled pages 2 and 3, the view 8 and 9; under
			// rolling-update the view's fault fetched block 2 alone, and
			// BulkRead and PeerRead took Invalid block 1 from the device.
			if kind == RollingUpdate {
				neverCopied("after the view", 0, 1, 10, 11)
			} else {
				neverCopied("after the view", 0, 1, 4, 5, 6, 7, 10, 11, 12)
			}

			must(t, r.mgr.InvokeHinted("owed.xor", CallHints{}, 5, uint64(a), size, uint64(u), usize))
			if kind == BatchUpdate {
				must(t, r.mgr.HostWrite(a+10*testPage+5, wbPattern(200, 8)))
			}
			must(t, r.mgr.Sync())
			owedXor(ref, 5)
			owedXor(uref, 5)
			must(t, r.mgr.CheckInvariants())
			untouched()
			call(7)
			untouched()
			all := make([]byte, size)
			must(t, r.mgr.HostRead(a, all))
			check("HostRead after the third call", 0, all)
			uall := make([]byte, usize)
			must(t, r.mgr.HostRead(u, uall))
			if i := diffAt(uall, uref); i >= 0 {
				t.Fatalf("untouched object byte %d reads %#x, the model holds %#x", i, uall[i], uref[i])
			}
			must(t, r.mgr.CheckInvariants())
		})
	}
}

// TestBatchDeviceLostKeepsAcquiredBytes: with an injector armed, a
// batch-update acquire lands its bytes at once, so when the device is lost
// at the second acquire's D2H, after a successful kernel, the degraded
// object reads the bytes of the first acquire (recover.go's contract).
func TestBatchDeviceLostKeepsAcquiredBytes(t *testing.T) {
	const size = 6*testPage + 100
	r := newRig(t, defaultCfg(BatchUpdate))
	registerOwedXor(r)
	r.dev.SetFaultInjector(fault.NewInjector(1, r.clock, fault.Nth(fault.OpDMAD2H, 2, fault.KindDeviceLost)))
	p, err := r.mgr.Alloc(size)
	must(t, err)
	ref := wbPattern(size, 4)
	must(t, r.mgr.HostWrite(p, ref))
	must(t, r.mgr.InvokeHinted("owed.xor", CallHints{}, 3, uint64(p), size))
	must(t, r.mgr.Sync())
	owedXor(ref, 3)
	must(t, r.mgr.InvokeHinted("owed.xor", CallHints{}, 5, uint64(p), size))
	if err := r.mgr.Sync(); !errors.Is(err, fault.ErrDeviceLost) {
		t.Fatalf("second acquire: %v, want ErrDeviceLost", err)
	}
	got := make([]byte, size)
	must(t, r.mgr.HostRead(p, got))
	if i := diffAt(got, ref); i >= 0 {
		t.Fatalf("byte %d reads %#x, the first acquire returned %#x", i, got[i], ref[i])
	}
	must(t, r.mgr.CheckInvariants())
}

// TestBatchInjectedLossPullsOwedPages: an injector armed after a
// batch-update acquire that owed its pages, and a loss injected into
// another object's write-back, degrade the owing object while the device
// memory is still there, so the object keeps the kernel's bytes.
func TestBatchInjectedLossPullsOwedPages(t *testing.T) {
	const size = 6*testPage + 100
	r := newRig(t, defaultCfg(BatchUpdate))
	registerOwedXor(r)
	r.dev.Register(&accel.Kernel{Name: "owed.nop", Run: func(*mem.Space, []uint64) {}})
	a, err := r.mgr.AllocObject(AllocSpec{Size: size, Kernels: []string{"owed.xor"}})
	must(t, err)
	c, err := r.mgr.AllocObject(AllocSpec{Size: testPage, Kernels: []string{"owed.nop"}})
	must(t, err)
	ref := wbPattern(size, 4)
	must(t, r.mgr.HostWrite(a, ref))
	must(t, r.mgr.InvokeHinted("owed.xor", CallHints{}, 3, uint64(a), size))
	must(t, r.mgr.Sync())
	owedXor(ref, 3)
	if o := r.mgr.objectAt(a); o.owedPages == 0 {
		t.Fatal("the unarmed acquire owes no page")
	}
	r.dev.SetFaultInjector(fault.NewInjector(1, r.clock, fault.Nth(fault.OpDMAH2D, 1, fault.KindDeviceLost)))
	if err := r.mgr.InvokeHinted("owed.nop", CallHints{}, uint64(c)); !errors.Is(err, fault.ErrDeviceLost) {
		t.Fatalf("call on the lost device: %v, want ErrDeviceLost", err)
	}
	got := make([]byte, size)
	must(t, r.mgr.HostRead(a, got))
	if i := diffAt(got, ref); i >= 0 {
		t.Fatalf("byte %d reads %#x, the kernel wrote %#x", i, got[i], ref[i])
	}
	if o := r.mgr.objectAt(a); !o.degraded.Load() || o.owedPages != 0 {
		t.Fatalf("after the loss: degraded %v, %d pages owed", o.degraded.Load(), o.owedPages)
	}
	must(t, r.mgr.CheckInvariants())
}

// TestPullAfterClose: once the device is closed its memory is gone, so a
// host access that needs device bytes fails with an error matching
// fault.ErrDeviceLost instead of a machine check. A page the host copied
// before the close (through a HostBytes slice) stays readable; a page a
// fetch brought over but the host never touched is owed under every
// protocol, so reading it fails too. Under batch-update an owed page keeps
// failing after a failed call degrades the object: it never reads the
// bytes from before the kernel.
func TestPullAfterClose(t *testing.T) {
	const size = 4 * testPage
	for _, kind := range []ProtocolKind{BatchUpdate, LazyUpdate, RollingUpdate} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := defaultCfg(kind)
			cfg.BlockSize = testPage
			r := newRig(t, cfg)
			registerOwedXor(r)
			p, err := r.mgr.Alloc(size)
			must(t, err)
			ref := wbPattern(size, 6)
			must(t, r.mgr.HostWrite(p, ref))
			must(t, r.mgr.InvokeHinted("owed.xor", CallHints{}, 3, uint64(p), size))
			must(t, r.mgr.Sync())
			owedXor(ref, 3)
			page := make([]byte, testPage)
			_, err = r.mgr.HostBytes(p, testPage, hostmmu.AccessRead)
			must(t, err)
			if kind == RollingUpdate {
				// A sequential read fault: blocks 1 and 2 come over in one
				// run, and the host reads only block 1.
				must(t, r.mgr.HostRead(p+testPage, page[:8]))
			}
			r.dev.Close()
			must(t, r.mgr.HostRead(p, page))
			if i := diffAt(page, ref[:testPage]); i >= 0 {
				t.Fatalf("pulled byte %d reads %#x after Close, want %#x", i, page[i], ref[i])
			}
			if err := r.mgr.HostRead(p+2*testPage, page); !errors.Is(err, fault.ErrDeviceLost) {
				t.Fatalf("HostRead of device bytes after Close: %v, want ErrDeviceLost", err)
			}
			if kind != BatchUpdate {
				if kind == RollingUpdate {
					if err := r.mgr.HostRead(p+3*testPage, page); !errors.Is(err, fault.ErrDeviceLost) {
						t.Fatalf("HostRead of an Invalid block after Close: %v, want ErrDeviceLost", err)
					}
				}
				return
			}
			if _, err := r.mgr.HostBytes(p+3*testPage, 8, hostmmu.AccessWrite); !errors.Is(err, fault.ErrDeviceLost) {
				t.Fatalf("HostBytes of device bytes after Close: %v, want ErrDeviceLost", err)
			}
			if err := r.mgr.InvokeHinted("owed.xor", CallHints{}, 5, uint64(p), size); !errors.Is(err, fault.ErrDeviceLost) {
				t.Fatalf("call after Close: %v, want ErrDeviceLost", err)
			}
			for i := range 2 {
				if err := r.mgr.HostRead(p+2*testPage, page); !errors.Is(err, fault.ErrDeviceLost) {
					t.Fatalf("HostRead %d of device bytes after a failed call: %v, want ErrDeviceLost", i+1, err)
				}
			}
			if o := r.mgr.objectAt(p); !o.degraded.Load() {
				t.Fatal("the failed call left the object not degraded")
			}
			must(t, r.mgr.HostRead(p, page))
			if i := diffAt(page, ref[:testPage]); i >= 0 {
				t.Fatalf("pulled byte %d reads %#x after a failed call, want %#x", i, page[i], ref[i])
			}
			must(t, r.mgr.CheckInvariants())
		})
	}
}

// oweBlock0 builds the state the owed-page tests start from: an object of
// size bytes written with a pattern, a kernel call that changes every
// byte on the device, and then, for a detecting protocol, a one-byte read
// of block 0, whose fault fetches it without landing a byte. It returns
// the object and the flat model of its bytes.
func oweBlock0(t *testing.T, r *rig, size int64) (mem.Addr, []byte) {
	t.Helper()
	registerOwedXor(r)
	p, err := r.mgr.Alloc(size)
	must(t, err)
	ref := wbPattern(int(size), 4)
	must(t, r.mgr.HostWrite(p, ref))
	must(t, r.mgr.InvokeHinted("owed.xor", CallHints{}, 3, uint64(p), uint64(size)))
	must(t, r.mgr.Sync())
	owedXor(ref, 3)
	must(t, r.mgr.HostRead(p, make([]byte, 1)))
	if o := r.mgr.objectAt(p); o.owedPages == 0 {
		t.Fatal("the unarmed fetch owes no page")
	}
	return p, ref
}

// TestOwedBeforeArming: pages owed while the device was unarmed are safe
// once an injector is armed, since a write-back of their run copies them
// in first, so CheckInvariants accepts them, under every protocol. Then a
// corrupt write-back attempt, whose retry re-sends the whole host copy,
// must not lose them.
func TestOwedBeforeArming(t *testing.T) {
	const size = 8 * testPage
	for _, kind := range []ProtocolKind{BatchUpdate, LazyUpdate, RollingUpdate} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := defaultCfg(kind)
			cfg.BlockSize = 4 * testPage
			r := newRig(t, cfg)
			p, ref := oweBlock0(t, r, size)
			r.dev.SetFaultInjector(fault.NewInjector(1, r.clock))
			must(t, r.mgr.CheckInvariants())
			r.dev.SetFaultInjector(fault.NewInjector(1, r.clock, fault.Nth(fault.OpDMAH2D, 1, fault.KindCorrupt)))
			must(t, r.mgr.CheckInvariants())
			w := wbPattern(10, 7)
			must(t, r.mgr.HostWrite(p+testPage+5, w))
			copy(ref[testPage+5:], w)
			must(t, r.mgr.InvokeHinted("owed.xor", CallHints{}, 5, uint64(p), size))
			must(t, r.mgr.Sync())
			owedXor(ref, 5)
			must(t, r.mgr.CheckInvariants())
			got := make([]byte, size)
			must(t, r.mgr.HostRead(p, got))
			if i := diffAt(got, ref); i >= 0 {
				t.Fatalf("byte %d reads %#x, the model holds %#x", i, got[i], ref[i])
			}
		})
	}
}

// TestArmedEvictionPullsOwedPages: under rolling-update a fault owes its
// block's pages; an injector armed since corrupts the first write-back.
// A write to the block and a write to the next one evict it (a rolling
// cache of one block), and the eviction's retry re-sends the whole block,
// so its owed pages must have come home before the first attempt.
func TestArmedEvictionPullsOwedPages(t *testing.T) {
	const size = 8 * testPage
	cfg := defaultCfg(RollingUpdate)
	cfg.BlockSize = 4 * testPage
	cfg.FixedRolling = 1
	r := newRig(t, cfg)
	p, ref := oweBlock0(t, r, size)
	before := r.mgr.Stats()
	r.dev.SetFaultInjector(fault.NewInjector(1, r.clock, fault.Nth(fault.OpDMAH2D, 1, fault.KindCorrupt)))
	for _, off := range []int64{testPage + 5, 4*testPage + 9} {
		w := wbPattern(10, byte(off))
		must(t, r.mgr.HostWrite(p+mem.Addr(off), w))
		copy(ref[off:], w)
	}
	if st := r.mgr.Stats().Sub(before); st.Evictions != 1 || st.Retries != 1 {
		t.Fatalf("%d evictions and %d retries, want one of each", st.Evictions, st.Retries)
	}
	must(t, r.mgr.CheckInvariants())
	must(t, checkCleanPages(r.mgr))
	got := make([]byte, size)
	must(t, r.mgr.PeerRead(p, got))
	if i := diffAt(got, ref); i >= 0 {
		t.Fatalf("device byte %d reads %#x after the eviction, the model holds %#x", i, got[i], ref[i])
	}
}

// TestBulkAndPeerReadOwedBlocks: BulkRead and PeerRead of a detecting
// object's ReadOnly and Dirty blocks read owed pages through from the
// device, copying nothing into host memory.
func TestBulkAndPeerReadOwedBlocks(t *testing.T) {
	const size = 8 * testPage
	for _, kind := range []ProtocolKind{LazyUpdate, RollingUpdate} {
		for _, dirty := range []bool{false, true} {
			name := kind.String() + "/ReadOnly"
			if dirty {
				name = kind.String() + "/Dirty"
			}
			t.Run(name, func(t *testing.T) {
				cfg := defaultCfg(kind)
				cfg.BlockSize = 4 * testPage
				r := newRig(t, cfg)
				p, ref := oweBlock0(t, r, size)
				if dirty {
					w := wbPattern(10, 7)
					must(t, r.mgr.HostWrite(p+testPage+5, w))
					copy(ref[testPage+5:], w)
				}
				o := r.mgr.objectAt(p)
				if want := map[bool]State{false: StateReadOnly, true: StateDirty}[dirty]; o.blocks[0].state != want {
					t.Fatalf("block 0 is %v, want %v", o.blocks[0].state, want)
				}
				owed, pulled := o.owedPages, o.copies.pulled
				for _, read := range []struct {
					name string
					f    func(mem.Addr, []byte) error
				}{{"BulkRead", r.mgr.BulkRead}, {"PeerRead", r.mgr.PeerRead}} {
					got := make([]byte, 4*testPage-3)
					must(t, read.f(p+3, got))
					if i := diffAt(got, ref[3:3+len(got)]); i >= 0 {
						t.Fatalf("%s: byte %d reads %#x, the model holds %#x", read.name, 3+i, got[i], ref[3+i])
					}
				}
				if o.owedPages != owed || o.copies.pulled != pulled {
					t.Fatalf("the reads pulled pages: %d owed, %d bytes pulled; before them %d and %d",
						o.owedPages, o.copies.pulled, owed, pulled)
				}
				must(t, r.mgr.CheckInvariants())
			})
		}
	}
}
