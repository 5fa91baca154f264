package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/accel"
	"repro/internal/hostmmu"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/sim"
)

// FuzzSpanSet drives the registry's span set with an encoded op stream and
// checks every observable result against a flat map oracle. Each op is 3
// bytes: opcode, address selector, size selector; addresses are
// deliberately compressed into a small range so overlapping inserts,
// exact-match removes and containing-interval lookups all occur frequently.
func FuzzSpanSet(f *testing.F) {
	f.Add([]byte{0, 1, 4, 0, 9, 4, 2, 1, 0, 1, 1, 0})
	f.Add([]byte{0, 0, 31, 0, 8, 31, 0, 16, 31, 1, 8, 0, 3, 4, 0})
	f.Add(bytes.Repeat([]byte{0, 7, 3, 1, 7, 0, 2, 7, 1}, 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sh regShard // lends its mutex to the set under test
		var set spanSet
		oracle := map[mem.Addr]*Object{} // by start; each object's size is its extent
		find := func(a mem.Addr) (mem.Addr, *Object) {
			for base, o := range oracle {
				if a >= base && a < base+mem.Addr(o.size) {
					return base, o
				}
			}
			return 0, nil
		}
		overlaps := func(a mem.Addr, s int64) bool {
			for base, o := range oracle {
				if a < base+mem.Addr(o.size) && base < a+mem.Addr(s) {
					return true
				}
			}
			return false
		}
		// lookup finds a through the set and checks the index it reports:
		// the containing span on a hit, the first span above a on a miss.
		lookup := func(a mem.Addr) *Object {
			spans, j, hit := set.find(&sh, a)
			below := 0
			for _, sp := range spans {
				if sp.end <= a {
					below++
				}
			}
			if hit && (a < spans[j].addr || a >= spans[j].end) || !hit && j != below {
				t.Fatalf("find(%#x) = (%d, %v) over %d spans, %d of them below", uint64(a), j, hit, len(spans), below)
			}
			if hit {
				return spans[j].obj
			}
			return nil
		}
		// edit runs one insert or remove and checks that the clone readers
		// held before it is byte-for-byte what it was.
		edit := func(do func()) {
			set.find(&sh, 0)
			held := *set.pub.Load()
			want := slices.Clone(held)
			do()
			if !slices.Equal(held, want) {
				t.Fatalf("an edit wrote to a published clone: %v, was %v", held, want)
			}
		}
		for i := 0; i+3 <= len(data); i += 3 {
			op := data[i] % 4
			addr := mem.Addr(data[i+1]) * 8
			size := int64(data[i+2]%32) + 1
			switch op {
			case 0: // insert
				o := &Object{addr: addr, size: size}
				var err error
				edit(func() { err = set.insert(&sh, span{addr: addr, end: addr + mem.Addr(size), obj: o}) })
				if wantErr := overlaps(addr, size); (err != nil) != wantErr {
					t.Fatalf("insert(%#x,+%d) err=%v, overlap oracle says %v", uint64(addr), size, err, wantErr)
				}
				if err == nil {
					oracle[addr] = o
				}
			case 1: // remove (exact start address)
				var got int
				edit(func() { got = set.remove(&sh, addr, addr+1) })
				_, ok := oracle[addr]
				if ok != (got == 1) {
					t.Fatalf("remove(%#x) removed %d spans, oracle has-entry %v", uint64(addr), got, ok)
				}
				delete(oracle, addr)
			case 2, 3: // lookup (containing interval)
				if _, want := find(addr); lookup(addr) != want {
					t.Fatalf("find(%#x) disagrees with the oracle's %v", uint64(addr), want)
				}
			}
		}
		if len(set.spans) != len(oracle) {
			t.Fatalf("set has %d intervals, oracle %d", len(set.spans), len(oracle))
		}
		prevEnd := mem.Addr(0)
		for _, sp := range set.spans {
			if sp.addr < prevEnd || sp.end <= sp.addr {
				t.Fatalf("spans unsorted or overlapping at [%#x,%#x)", uint64(sp.addr), uint64(sp.end))
			}
			prevEnd = sp.end
			if o := oracle[sp.addr]; o == nil || mem.Addr(o.size) != sp.end-sp.addr || o != sp.obj {
				t.Fatalf("spans hold [%#x,%#x)=%v, oracle %v", uint64(sp.addr), uint64(sp.end), sp.obj, o)
			}
		}
		// Cross-check the published clone against the oracle over the whole
		// address range the ops could touch, including gaps and the interval
		// edges.
		for a := mem.Addr(0); a <= 256*8; a++ {
			if _, want := find(a); lookup(a) != want {
				t.Fatalf("find(%#x) disagrees with the oracle's %v", uint64(a), want)
			}
		}

		// Cross-check the sharded registry against the same oracle. The
		// fuzz addresses all live in one 1 MiB granule, so scale them up
		// to granule size: interval containment is preserved exactly, and
		// the intervals now spread across many shards.
		const scale = regGranuleBits
		reg := &registry{}
		byAddr := map[mem.Addr]*Object{}
		for base, fo := range oracle {
			o := &Object{addr: base << scale, size: fo.size << scale}
			if err := reg.insertObject(o); err != nil {
				t.Fatalf("registry insert [%#x,+%d): %v", uint64(o.addr), o.size, err)
			}
			byAddr[base] = o
		}
		for a := mem.Addr(0); a <= 256*8; a++ {
			got := reg.objectAt(a << scale)
			if base, fo := find(a); fo != nil {
				if got != byAddr[base] {
					t.Fatalf("registry objectAt(%#x) = %v, want object at %#x",
						uint64(a<<scale), got, uint64(base<<scale))
				}
			} else if got != nil {
				t.Fatalf("registry objectAt(%#x) = %v, oracle says absent", uint64(a<<scale), got)
			}
		}
		if want := int64(len(oracle)); reg.nobjects.Load() != want {
			t.Fatalf("registry holds %d objects, oracle %d", reg.nobjects.Load(), want)
		}
		// Remove every other object and re-verify: each edited shard must
		// drop its published clone.
		removed := map[mem.Addr]bool{}
		i := 0
		for base, o := range byAddr {
			if i++; i%2 == 0 {
				continue
			}
			reg.removeObject(o)
			removed[base] = true
		}
		for a := mem.Addr(0); a <= 256*8; a++ {
			got := reg.objectAt(a << scale)
			base, fo := find(a)
			if fo != nil && !removed[base] {
				if got != byAddr[base] {
					t.Fatalf("after remove: objectAt(%#x) = %v, want object at %#x",
						uint64(a<<scale), got, uint64(base<<scale))
				}
			} else if got != nil {
				t.Fatalf("after remove: objectAt(%#x) = %v, want nil", uint64(a<<scale), got)
			}
		}
	})
}

// fuzzRig is a down-sized rig (1 MiB device) so manager fuzz iterations
// stay cheap.
func fuzzRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	clock := sim.NewClock()
	bd := sim.NewBreakdown()
	mmu := hostmmu.New(hostmmu.Config{PageSize: testPage, SignalCost: 4 * sim.Microsecond}, clock, bd)
	va := mem.NewVASpace(0x1000_0000, 0x4_0000_0000)
	dev := accel.New(accel.Config{
		Name:           "fuzz-dev",
		MemBase:        testDevBase,
		MemSize:        1 << 20,
		AllocAlign:     testPage,
		GFLOPS:         600,
		MemLink:        interconnect.G280Memory(),
		H2D:            interconnect.PCIe2x16H2D(),
		D2H:            interconnect.PCIe2x16D2H(),
		LaunchOverhead: 8 * sim.Microsecond,
		AllocOverhead:  40 * sim.Microsecond,
	}, clock)
	mgr, err := NewManager(cfg, clock, bd, mmu, va, dev)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clock: clock, bd: bd, mmu: mmu, va: va, dev: dev, mgr: mgr}
}

// FuzzManagerOps feeds an encoded operation stream through a live manager
// and mirrors every mutation into a flat reference model: any coherence
// divergence or invariant violation the fuzzer can provoke is a bug. The
// first byte selects the protocol; each following 4-byte group encodes one
// operation (opcode, 16-bit offset selector, payload byte). The opcodes
// reach every host entry point: HostRead/Write, Bulk*, PeerRead/Write,
// HostBytes, an unannotated, a write-annotated and a read-only-hinted
// kernel call, and a Free followed by an Alloc of the same size.
func FuzzManagerOps(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 1, 5, 0, 16, 255, 1, 0, 32, 7})
	f.Add([]byte{0, 2, 0, 0, 9, 3, 255, 255, 1, 5, 10, 0, 128})
	f.Add(bytes.Repeat([]byte{1, 6, 0, 4, 2, 4, 0, 8, 170}, 12))
	// One seed per later arm, each after a host write so it has dirty data
	// to see: PeerRead, HostBytes read, HostBytes write, write-annotated
	// call, read-only-hinted call, Free+Alloc.
	f.Add([]byte{1, 0, 0, 16, 200, 7, 0, 16, 255})
	f.Add([]byte{2, 0, 0, 16, 200, 8, 0, 16, 255})
	f.Add([]byte{0, 0, 0, 16, 200, 9, 0, 16, 255, 1, 0, 16, 255})
	f.Add([]byte{2, 0, 0, 16, 200, 10, 0, 16, 255, 1, 0, 16, 255})
	f.Add([]byte{1, 0, 0, 16, 200, 11, 0, 16, 255, 1, 0, 16, 255})
	// Free+Alloc after a host write, then a HostRead of the same range.
	f.Add([]byte{1, 0, 0, 16, 200, 12, 0, 16, 255, 1, 0, 16, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		const objSize = 16 << 10
		cfg := defaultCfg(ProtocolKind(data[0] % 3))
		cfg.BlockSize = 4 << 10
		if cfg.Protocol == RollingUpdate {
			cfg.FixedRolling = 2
		}
		r := fuzzRig(t, cfg)
		r.dev.Register(&accel.Kernel{
			Name: "fuzz.xor",
			Run: func(dev *mem.Space, args []uint64) {
				buf := dev.Bytes(mem.Addr(args[0])+mem.Addr(args[1]), int64(args[2]))
				for i := range buf {
					buf[i] ^= byte(args[3])
				}
			},
			Cost: accel.FixedCost(1e5, 1<<16),
		})
		// fuzz.peek only reads: it copies the device range into seen.
		var seen []byte
		r.dev.Register(&accel.Kernel{
			Name: "fuzz.peek",
			Run: func(dev *mem.Space, args []uint64) {
				seen = append(seen[:0], dev.Bytes(mem.Addr(args[0])+mem.Addr(args[1]), int64(args[2]))...)
			},
			Cost: accel.FixedCost(1e5, 1<<16),
		})
		ptr, err := r.mgr.Alloc(objSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.BulkSet(ptr, 0, objSize); err != nil {
			t.Fatal(err)
		}
		ref := make([]byte, objSize)

		fill := func(n int64, pat byte) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = pat + byte(i)
			}
			return b
		}
		var ballast mem.Addr // keeps enough mapped for the VA pool to keep ptr's backing
		ops := 0
		for i := 1; i+4 <= len(data) && ops < 64; i += 4 {
			ops++
			op := data[i] % 13
			off := int64(uint16(data[i+1])|uint16(data[i+2])<<8) % objSize
			n := int64(data[i+3])%(objSize-off) + 1
			pat := data[i+3]
			switch op {
			case 0:
				if err := r.mgr.HostWrite(ptr+mem.Addr(off), fill(n, pat)); err != nil {
					t.Fatal(err)
				}
				copy(ref[off:], fill(n, pat))
			case 1:
				got := make([]byte, n)
				if err := r.mgr.HostRead(ptr+mem.Addr(off), got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref[off:off+n]) {
					t.Fatalf("op %d: HostRead diverged at off %d len %d", ops, off, n)
				}
			case 2:
				if err := r.mgr.BulkWrite(ptr+mem.Addr(off), fill(n, pat)); err != nil {
					t.Fatal(err)
				}
				copy(ref[off:], fill(n, pat))
			case 3:
				got := make([]byte, n)
				if err := r.mgr.BulkRead(ptr+mem.Addr(off), got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref[off:off+n]) {
					t.Fatalf("op %d: BulkRead diverged at off %d len %d", ops, off, n)
				}
			case 4:
				if err := r.mgr.BulkSet(ptr+mem.Addr(off), pat, n); err != nil {
					t.Fatal(err)
				}
				for k := off; k < off+n; k++ {
					ref[k] = pat
				}
			case 5:
				if err := r.mgr.InvokeHinted("fuzz.xor", CallHints{}, uint64(ptr), uint64(off), uint64(n), uint64(pat)); err != nil {
					t.Fatal(err)
				}
				if err := r.mgr.Sync(); err != nil {
					t.Fatal(err)
				}
				for k := off; k < off+n; k++ {
					ref[k] ^= pat
				}
			case 6:
				if err := r.mgr.PeerWrite(ptr+mem.Addr(off), fill(n, pat)); err != nil {
					t.Fatal(err)
				}
				copy(ref[off:], fill(n, pat))
			case 7:
				got := make([]byte, n)
				if err := r.mgr.PeerRead(ptr+mem.Addr(off), got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref[off:off+n]) {
					t.Fatalf("op %d: PeerRead diverged at off %d len %d", ops, off, n)
				}
			case 8:
				got, err := r.mgr.HostBytes(ptr+mem.Addr(off), n, hostmmu.AccessRead)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref[off:off+n]) {
					t.Fatalf("op %d: HostBytes read diverged at off %d len %d", ops, off, n)
				}
			case 9:
				// A HostBytes write is safe only inside one block.
				n = min(n, cfg.BlockSize-off%cfg.BlockSize)
				live, err := r.mgr.HostBytes(ptr+mem.Addr(off), n, hostmmu.AccessWrite)
				if err != nil {
					t.Fatal(err)
				}
				copy(live, fill(n, pat))
				copy(ref[off:], fill(n, pat))
			case 10:
				if err := r.mgr.InvokeAnnotated("fuzz.xor", []mem.Addr{ptr}, uint64(ptr), uint64(off), uint64(n), uint64(pat)); err != nil {
					t.Fatal(err)
				}
				if err := r.mgr.Sync(); err != nil {
					t.Fatal(err)
				}
				for k := off; k < off+n; k++ {
					ref[k] ^= pat
				}
			case 11:
				h := CallHints{ReadOnly: []mem.Addr{ptr}}
				if err := r.mgr.InvokeHinted("fuzz.peek", h, uint64(ptr), uint64(off), uint64(n)); err != nil {
					t.Fatal(err)
				}
				if err := r.mgr.Sync(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(seen, ref[off:off+n]) {
					t.Fatalf("op %d: read-only-hinted kernel saw stale device bytes at off %d len %d", ops, off, n)
				}
			case 12:
				// Free the object and allocate one of the same size, which
				// takes its host backing from the VA pool and, first fit,
				// its device range. The host side must read zeros. The
				// device side still holds the freed bytes under lazy- and
				// rolling-update (ROADMAP item 1, out of scope here), so
				// BulkSet re-zeroes both sides before the model goes on.
				if ballast == 0 {
					if ballast, err = r.mgr.Alloc(8 * objSize); err != nil {
						t.Fatal(err)
					}
				}
				if err := r.mgr.Free(ptr); err != nil {
					t.Fatal(err)
				}
				if ptr, err = r.mgr.Alloc(objSize); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, n)
				if err := r.mgr.HostRead(ptr+mem.Addr(off), got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, make([]byte, n)) {
					t.Fatalf("op %d: HostRead of a reallocated object saw the freed bytes at off %d len %d", ops, off, n)
				}
				if err := r.mgr.BulkRead(ptr+mem.Addr(off), got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, make([]byte, n)) {
					t.Fatalf("op %d: BulkRead of a reallocated object saw the freed bytes at off %d len %d", ops, off, n)
				}
				if err := r.mgr.BulkSet(ptr, 0, objSize); err != nil {
					t.Fatal(err)
				}
				clear(ref)
			}
			if err := checkCleanPages(r.mgr); err != nil {
				t.Fatalf("after op %d: %v", ops, err)
			}
			if ops%8 == 0 {
				if err := r.mgr.CheckInvariants(); err != nil {
					t.Fatalf("after op %d: %v", ops, err)
				}
			}
		}
		final := make([]byte, objSize)
		if err := r.mgr.HostRead(ptr, final); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(final, ref) {
			t.Fatal("final state diverged from reference model")
		}
		if err := r.mgr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := r.mgr.Free(ptr); err != nil {
			t.Fatal(err)
		}
	})
}
