package core

import (
	"math/bits"
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
// what insert rejects, what remove matches, what find reports and charges.
func TestSpanSet(t *testing.T) {
	type step struct {
		op   byte     // 'i' insert, 'r' remove, 'f' find
		addr mem.Addr // first span's start / range start / probe address
		size int64    // bytes per span / range length
		n    int      // 'i': spans in the run (0 means 1)
		want int64    // 'i': 1 if rejected; 'r': spans removed; 'f': start of the span found, 0 for none
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
			{op: 'i', addr: 0x0e00, size: 0x80, n: 3, want: 1}, // a run whose tail reaches 0x0f00
		}, 3},
		{"size-rejected", []step{
			{op: 'i', addr: 0x1000, size: 0, want: 1},
			{op: 'i', addr: 0x1000, size: -8, want: 1},
			{op: 'f', addr: 0x1000}, // the empty set still charges one probe
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
			{op: 'i', addr: 0x4000, size: 0x1000, n: 4}, // one object's four blocks
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
			var set spanSet[mem.Addr]
			for i, st := range c.steps {
				switch st.op {
				case 'i':
					run := make([]span[mem.Addr], max(st.n, 1))
					for j := range run {
						start := st.addr + mem.Addr(int64(j)*st.size)
						run[j] = span[mem.Addr]{start, start + mem.Addr(st.size), &start}
					}
					if err := set.insert(run); (err != nil) != (st.want == 1) {
						t.Fatalf("step %d: insert [%#x,+%d)x%d: err = %v", i, uint64(st.addr), st.size, len(run), err)
					}
				case 'r':
					if got := set.remove(st.addr, st.addr+mem.Addr(st.size)); int64(got) != st.want {
						t.Fatalf("step %d: remove [%#x,+%d) removed %d spans, want %d", i, uint64(st.addr), st.size, got, st.want)
					}
				case 'f':
					got, probes := set.find(&sh, st.addr)
					if (got == nil) != (st.want == 0) || got != nil && int64(*got) != st.want {
						t.Fatalf("step %d: find(%#x) = %v, want span at %#x", i, uint64(st.addr), got, st.want)
					}
					// A binary search of n spans probes at most ceil(log2(n+1)) of them.
					if n := len(set.spans); probes < 1 || probes > int64(max(1, bits.Len(uint(n)))) {
						t.Fatalf("step %d: find(%#x) charged %d probes over %d spans", i, uint64(st.addr), probes, n)
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
// a lookup storm after an Alloc must clone each touched span set once — the
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
	// The allocations above dropped each touched shard's two clones; with
	// no churn during the storm, the ceiling is one clone per set per
	// shard — not per goroutine, not per lookup.
	delta := r.mgr.IndexRebuilds() - before
	if max := int64(2 * regShards); delta > max {
		t.Fatalf("lookup storm published %d clones, want <= %d", delta, max)
	}
	if delta == 0 {
		t.Fatal("storm published no clone at all; test is not exercising the slow path")
	}
}
