package core

import (
	"math/bits"
	"sort"
	"sync"
	"testing"

	"repro/internal/mem"
)

// TestRegShardMaskCoversEveryGranule: every granule of an interval must map
// into the mask, or a point lookup in that granule would miss the interval.
func TestRegShardMaskCoversEveryGranule(t *testing.T) {
	cases := []struct {
		addr mem.Addr
		size int64
	}{
		{0x1000, 4096},         // within one granule
		{0xf_f000, 0x2000},     // straddles a granule boundary
		{0x100_0000, 40 << 20}, // 40 granules
		{0x7fff_0000, 1},       // single byte
		{mem.Addr(3) << regGranuleBits, 1 << regGranuleBits}, // exactly one granule
	}
	for _, c := range cases {
		mask := regShardMask(c.addr, c.size)
		for a := c.addr; a < c.addr+mem.Addr(c.size); a += mem.Addr(1) << regGranuleBits {
			if mask&(1<<regShardOf(a)) == 0 {
				t.Errorf("mask(%#x,+%d) misses shard of granule %#x", uint64(c.addr), c.size, uint64(a))
			}
		}
		// The end point's granule too, when the interval straddles into it.
		last := c.addr + mem.Addr(c.size) - 1
		if mask&(1<<regShardOf(last)) == 0 {
			t.Errorf("mask(%#x,+%d) misses shard of last byte %#x", uint64(c.addr), c.size, uint64(last))
		}
	}
}

// TestSpanSet walks the span set through its edit and lookup contract:
// what insert rejects, what remove matches, what find reports.
func TestSpanSet(t *testing.T) {
	type step struct {
		op   byte     // 'i' insert, 'r' remove, 'f' find
		addr mem.Addr // span start / range start / probe address
		size int64    // span / range length
		n    int      // 'i': adjacent spans inserted one by one (0 means 1)
		want int64    // 'i': 1 if the last is rejected; 'r': spans removed; 'f': start of the span found, 0 for none
	}
	var fill, drain, pages []step
	for i := 0; i < 500; i++ {
		fill = append(fill, step{op: 'i', addr: mem.Addr(0x100 + i*0x100), size: 0x100})
		drain = append(drain, step{op: 'r', addr: mem.Addr(0x100 + i*0x100), size: 0x100, want: 1})
	}
	for i := 1023; i >= 0; i-- { // descending: every insert lands at the front
		pages = append(pages, step{op: 'i', addr: mem.Addr(0x1000 + i*0x1000), size: 0x1000})
	}
	cases := []struct {
		name    string
		steps   []step
		wantLen int
	}{
		{"insert-lookup", []step{
			{op: 'i', addr: 0x1000, size: 0x100},
			{op: 'i', addr: 0x3000, size: 0x100},
			{op: 'i', addr: 0x2000, size: 0x100},
			{op: 'f', addr: 0x1080, want: 0x1000}, // interior
			{op: 'f', addr: 0x10ff, want: 0x1000}, // last byte
			{op: 'f', addr: 0x1100},               // one past the end
			{op: 'f', addr: 0x2000, want: 0x2000}, // start
			{op: 'f', addr: 0x5000},               // outside
		}, 3},
		{"overlap-rejected-against-either-neighbour", []step{
			{op: 'i', addr: 0x1000, size: 0x1000},
			{op: 'i', addr: 0x1800, size: 0x100, want: 1},      // inside
			{op: 'i', addr: 0x0800, size: 0x1000, want: 1},     // straddles the start of the span after it
			{op: 'i', addr: 0x1fff, size: 0x10, want: 1},       // straddles the end of the span before it
			{op: 'i', addr: 0x1000, size: 0x1000, want: 1},     // exact duplicate
			{op: 'i', addr: 0x2000, size: 0x100},               // adjacent above is fine
			{op: 'i', addr: 0x0f00, size: 0x100},               // adjacent below is fine
			{op: 'i', addr: 0x0e00, size: 0x80, n: 3, want: 1}, // the third of a run reaches 0x0f00
		}, 5},
		{"size-rejected", []step{
			{op: 'i', addr: 0x1000, size: 0, want: 1},
			{op: 'i', addr: 0x1000, size: -8, want: 1},
			{op: 'f', addr: 0x1000}, // the empty set
		}, 0},
		{"remove-by-exact-start", []step{
			{op: 'i', addr: 0x1000, size: 0x100},
			{op: 'i', addr: 0x2000, size: 0x100},
			{op: 'r', addr: 0x1000, size: 0x100, want: 1},
			{op: 'r', addr: 0x1000, size: 0x100}, // already gone
			{op: 'r', addr: 0x2080, size: 0x80},  // an interior address matches nothing
			{op: 'f', addr: 0x1050},
			{op: 'f', addr: 0x2050, want: 0x2000},
		}, 1},
		{"run-splice-and-range-remove", []step{
			{op: 'i', addr: 0x1000, size: 0x100},
			{op: 'i', addr: 0x9000, size: 0x100},
			{op: 'i', addr: 0x4000, size: 0x1000, n: 4}, // four adjacent objects
			{op: 'f', addr: 0x6fff, want: 0x6000},
			{op: 'r', addr: 0x4000, size: 0x4000, want: 4},
			{op: 'f', addr: 0x6fff},
			{op: 'f', addr: 0x9000, want: 0x9000},
		}, 2},
		{"in-order-walk", []step{
			{op: 'i', addr: 0x5000, size: 0x100},
			{op: 'i', addr: 0x1000, size: 0x100},
			{op: 'i', addr: 0x3000, size: 0x100},
			{op: 'i', addr: 0x2000, size: 0x100},
			{op: 'i', addr: 0x4000, size: 0x100},
		}, 5},
		{"delete-all", append(fill, drain...), 0},
		{"probe-count", append(pages,
			step{op: 'f', addr: 0x200500, want: 0x200000},
			step{op: 'f', addr: 0x1000_0000},
		), 1024},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sh regShard // lends its mutex to the set under test
			var set spanSet
			for i, st := range c.steps {
				switch st.op {
				case 'i':
					for j := range max(st.n, 1) {
						start := st.addr + mem.Addr(int64(j)*st.size)
						err := set.insert(&sh, span{addr: start, end: start + mem.Addr(st.size), obj: &Object{addr: start}})
						if last := j == max(st.n, 1)-1; (err != nil) != (last && st.want == 1) {
							t.Fatalf("step %d: insert [%#x,+%d) #%d: err = %v", i, uint64(st.addr), st.size, j, err)
						}
					}
				case 'r':
					if got := set.remove(&sh, st.addr, st.addr+mem.Addr(st.size)); int64(got) != st.want {
						t.Fatalf("step %d: remove [%#x,+%d) removed %d spans, want %d", i, uint64(st.addr), st.size, got, st.want)
					}
				case 'f':
					spans, j, hit := set.find(&sh, st.addr)
					if hit != (st.want != 0) || hit && spans[j].addr != mem.Addr(st.want) {
						t.Fatalf("step %d: find(%#x) = (%d, %v), want span at %#x", i, uint64(st.addr), j, hit, st.want)
					}
					// A miss reports where addr would go: after every span below it.
					if below := sort.Search(len(spans), func(k int) bool { return spans[k].end > st.addr }); !hit && j != below {
						t.Fatalf("step %d: find(%#x) missed at %d, want %d", i, uint64(st.addr), j, below)
					}
					// Were each span one block, a binary search of the n of them
					// probes at most ceil(log2(n+1)).
					if n, probes := len(spans), searchDepth(len(spans), j, hit); probes < 1 || probes > int64(max(1, bits.Len(uint(n)))) {
						t.Fatalf("step %d: find(%#x) would charge %d probes over %d spans", i, uint64(st.addr), probes, n)
					}
				}
			}
			if len(set.spans) != c.wantLen {
				t.Fatalf("set holds %d spans, want %d", len(set.spans), c.wantLen)
			}
			for i := 1; i < len(set.spans); i++ {
				if set.spans[i].addr < set.spans[i-1].end {
					t.Fatalf("spans out of order at %d: %#x after %#x", i,
						uint64(set.spans[i].addr), uint64(set.spans[i-1].end))
				}
			}
		})
	}
}

// TestRegistryConcurrentLanes hammers the registry from several goroutines —
// disjoint per-lane address ranges, each lane inserting, looking up and
// removing its own objects while every lane also probes the others' ranges —
// and checks the final state. Run under -race this is the interleaving
// property test for the sharded fast path.
func TestRegistryConcurrentLanes(t *testing.T) {
	const (
		lanes   = 8
		objs    = 24
		objSize = 1 << 16
	)
	reg := &registry{}
	var wg sync.WaitGroup
	laneBase := func(l int) mem.Addr {
		// Lanes ≥ 2 granules apart so neighbouring lanes exercise
		// different shards most of the time.
		return mem.Addr(0x1000_0000) + mem.Addr(l)<<(regGranuleBits+1)
	}
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			base := laneBase(l)
			mine := make([]*Object, 0, objs)
			for i := 0; i < objs; i++ {
				o := &Object{addr: base + mem.Addr(i*objSize), size: objSize}
				if err := reg.insertObject(o); err != nil {
					t.Errorf("lane %d insert %d: %v", l, i, err)
					return
				}
				mine = append(mine, o)
				// Re-read everything inserted so far through the lock-free path.
				for j, p := range mine {
					if got := reg.objectAt(p.addr + objSize/2); got != p {
						t.Errorf("lane %d: objectAt(obj %d) = %v, want %v", l, j, got, p)
						return
					}
				}
				// Probe a neighbour's range: nil or a valid object, never a
				// torn read (the race detector checks the rest).
				reg.objectAt(laneBase((l+1)%lanes) + mem.Addr(i*objSize))
			}
			// Remove the odd objects, keep the even ones.
			for i := 1; i < objs; i += 2 {
				reg.removeObject(mine[i])
			}
		}(l)
	}
	wg.Wait()
	for l := 0; l < lanes; l++ {
		base := laneBase(l)
		for i := 0; i < objs; i++ {
			got := reg.objectAt(base + mem.Addr(i*objSize))
			if i%2 == 0 && got == nil {
				t.Fatalf("lane %d object %d missing after stress", l, i)
			}
			if i%2 == 1 && got != nil {
				t.Fatalf("lane %d object %d still present after remove", l, i)
			}
		}
	}
	if want := int64(lanes * objs / 2); reg.nobjects.Load() != want {
		t.Fatalf("nobjects = %d, want %d", reg.nobjects.Load(), want)
	}
}

// TestIndexRebuildStorm is the regression test for unbounded republishing:
// a lookup storm after an Alloc must clone each touched shard's set once — the
// first reader to find no clone publishes it under the shard mutex, and
// everyone queued behind it re-checks and reuses that clone — not once per
// goroutine or per lookup.
func TestIndexRebuildStorm(t *testing.T) {
	r := newRig(t, defaultCfg(RollingUpdate))
	const nObjs = 8
	ptrs := make([]mem.Addr, nObjs)
	for i := range ptrs {
		p, err := r.mgr.Alloc(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	before := r.mgr.IndexRebuilds()
	const lanes, lookups = 16, 200
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			buf := make([]byte, 1)
			for i := 0; i < lookups; i++ {
				p := ptrs[(l+i)%nObjs]
				if err := r.mgr.HostWrite(p+mem.Addr(i%(1<<20)), buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(l)
	}
	wg.Wait()
	// The allocations above dropped each touched shard's clone; with no
	// churn during the storm, the ceiling is one clone per shard — not per
	// goroutine, not per lookup.
	delta := r.mgr.IndexRebuilds() - before
	if max := int64(regShards); delta > max {
		t.Fatalf("lookup storm published %d clones, want <= %d", delta, max)
	}
	if delta == 0 {
		t.Fatal("storm published no clone at all; test is not exercising the slow path")
	}
}

// flatSearch is the block lookup as it was before shards kept objects only:
// a binary search of blocks, every block on one shard in address order,
// with its probe count.
func flatSearch(blocks []*Block, addr mem.Addr) (*Block, int64) {
	lo, hi, probes := 0, len(blocks), int64(0)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		probes++
		switch b := blocks[mid]; {
		case addr < b.addr:
			hi = mid
		case addr >= b.addr+mem.Addr(b.size):
			lo = mid + 1
		default:
			return b, probes
		}
	}
	return nil, max(probes, 1)
}

// checkBlockAt compares reg.blockAt, block and probe count, with flatSearch
// over a per-shard list of every block of objs (in address order) whose
// shard mask has that shard. It probes each block's first and last byte,
// both sides of each object's edges and granule boundaries, and one
// address on every shard far above the layout.
func checkBlockAt(t *testing.T, reg *registry, objs []*Object) {
	t.Helper()
	var flat [regShards][]*Block
	var probes []mem.Addr
	for _, o := range objs {
		for _, b := range o.blocks {
			for m := regShardMask(b.addr, b.size); m != 0; m &= m - 1 {
				s := bits.TrailingZeros32(m)
				flat[s] = append(flat[s], b)
			}
			probes = append(probes, b.addr, b.addr+mem.Addr(b.size)-1)
		}
		end := o.addr + mem.Addr(o.size)
		probes = append(probes, o.addr-1, end)
		for g := o.addr >> regGranuleBits; g <= end>>regGranuleBits; g++ {
			probes = append(probes, g<<regGranuleBits-1, g<<regGranuleBits)
		}
	}
	var seen uint32
	for g := mem.Addr(1) << (40 - regGranuleBits); seen != 1<<regShards-1; g++ {
		if s := regShardOf(g << regGranuleBits); seen&(1<<s) == 0 {
			seen |= 1 << s
			probes = append(probes, g<<regGranuleBits+5)
		}
	}
	for _, a := range probes {
		wantB, wantP := flatSearch(flat[regShardOf(a)], a)
		if gotB, gotP := reg.blockAt(a); gotB != wantB || gotP != wantP {
			t.Fatalf("blockAt(%#x) = (%p, %d probes), flat search (%p, %d) over the %d blocks of shard %d",
				uint64(a), gotB, gotP, wantB, wantP, len(flat[regShardOf(a)]), regShardOf(a))
		}
	}
}

// blockLayout is one object of a registry layout: where it starts, its
// size, and its block size (0: one block spanning it).
type blockLayout struct {
	addr         mem.Addr
	size, blocks int64
}

// checkLayout inserts the layout's objects into a fresh registry and checks
// blockAt against the flat search with all of them, after removing every
// other one, and after removing the rest (every shard empty).
func checkLayout(t *testing.T, layout []blockLayout) {
	t.Helper()
	var reg registry
	var objs []*Object
	for _, l := range layout {
		o := &Object{addr: l.addr, size: l.size}
		o.makeBlocks(l.blocks, testPage)
		if err := reg.insertObject(o); err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].addr < objs[j].addr })
	checkBlockAt(t, &reg, objs)
	var kept []*Object
	for i, o := range objs {
		if i%2 == 0 {
			reg.removeObject(o)
		} else {
			kept = append(kept, o)
		}
	}
	checkBlockAt(t, &reg, kept)
	for _, o := range kept {
		reg.removeObject(o)
	}
	checkBlockAt(t, &reg, nil)
}

// TestBlockAtAgainstFlatSearch: the shards keep objects only, and blockAt
// finds the block inside its object and computes the probe count. Both must
// be exactly what a binary search over every block on the shard returns,
// since that count is the §5.2 cost every fault charges to virtual time.
func TestBlockAtAgainstFlatSearch(t *testing.T) {
	const (
		kib = 1 << 10
		mib = 1 << 20
		g   = mem.Addr(0x4000_0000) // a granule boundary
	)
	cases := []struct {
		name   string
		layout []blockLayout
	}{
		{"multi-granule-4k-blocks", []blockLayout{
			{g + 0x7000, 5*mib + 0x3000, 4 * kib},
			{g + 12*mib, 17 * mib, 4 * kib},
		}},
		{"straddling-2m-and-3m-blocks", []blockLayout{
			{g + 0x8_0000, 13 * mib, 2 * mib},
			{g + 15*mib + 0x4_0000, 20*mib + 0x1234, 3 * mib},
			{g + 40*mib + 0xf_f000, 9 * mib, 3 * mib},
		}},
		{"short-tails-and-gaps", []blockLayout{
			{g + 0x1000, 0x2345, 4 * kib},
			{g + 0x8000, 3*mib + 100, 64 * kib},
			{g + 4*mib, 0x1000, 4 * kib},
			{g + 4*mib + 0x1000, 70 * kib, 64 * kib}, // adjacent to the one before
			{g + 9*mib + 0x800, 2*mib - 0x800, 4 * kib},
			{g + 30*mib, 5*mib + 1, mib},
		}},
		{"one-block-objects", []blockLayout{
			{g + 0x1000, 4 * kib, 0},
			{g + 0x3000, 3*mib + 0x500, 0}, // one block over four granules
			{g + 5*mib, 64 * kib, 0},
			{g + 5*mib + 64*kib, 64 * kib, 0},
			{g + 8*mib + 0xa000, 20 * mib, 4 * kib}, // a many-block neighbour
		}},
		{"many-small-objects", func() []blockLayout {
			var l []blockLayout
			for i := range 300 {
				l = append(l, blockLayout{g + mem.Addr(i)*96*kib, 64*kib + int64(i%7)*kib, 4 * kib})
			}
			return l
		}()},
		{"empty", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkLayout(t, c.layout) })
	}
}

// FuzzBlockAt checks blockAt against the flat search on layouts decoded
// from the input: 4 bytes per object (gap before it in 64 KiB units, size
// in 64 KiB units, bytes short of that in 16-byte units, block size
// selector), up to 12 objects.
func FuzzBlockAt(f *testing.F) {
	f.Add([]byte{1, 80, 3, 1, 0, 16, 0, 4, 5, 200, 9, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 47, 1, 3, 16, 30, 200, 2, 0, 3, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		sizes := []int64{0, 4 << 10, 64 << 10, 1 << 20, 2 << 20, 3 << 20}
		var layout []blockLayout
		addr := mem.Addr(0x1_0000_5000)
		for i := 0; i+4 <= len(data) && len(layout) < 12; i += 4 {
			addr += mem.Addr(data[i]) << 16
			size := (int64(data[i+1])+1)<<16 - int64(data[i+2])*16
			layout = append(layout, blockLayout{addr, size, sizes[int(data[i+3])%len(sizes)]})
			addr += mem.Addr(size)
		}
		checkLayout(t, layout)
	})
}
