package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
)

// This file is the object/block registry: the paper's one lookup structure
// (§5.2), split into regShards address-range shards so host lanes working
// on disjoint objects neither search nor edit the same data. Each shard
// keeps its objects and its blocks in one spanSet apiece.
//
// Sharding is by address granule: the shard of an address is a
// multiplicative hash of its 1 MiB granule number, so consecutive granules
// spread across shards (disjoint benchmark objects land on different
// shards even when allocated back to back) while every lookup is a pure
// deterministic function of the address. An interval is inserted into
// every shard its granules hash to; a point lookup needs only the shard of
// its own granule, because any interval containing the address overlaps
// that granule.

const (
	// regShardBits sets the shard count. 16 shards comfortably exceeds the
	// simulated host's lane count while keeping the all-shards sweep of
	// Alloc/Free cheap.
	regShardBits = 4
	regShards    = 1 << regShardBits
	// regGranuleBits sets the 1 MiB address granule that maps to one shard.
	// Smaller would spread single objects over all shards (making Alloc
	// lock everything); larger would lump neighbouring benchmark objects
	// onto one shard and re-create the contention sharding removes.
	regGranuleBits = 20
)

// regShardOf returns the shard owning addr's granule: a Fibonacci-hash
// spread of the granule number so address-adjacent granules land on
// different shards.
//
//adsm:noalloc
func regShardOf(addr mem.Addr) int {
	g := uint64(addr) >> regGranuleBits
	return int((g * 0x9e3779b97f4a7c15) >> (64 - regShardBits))
}

// regShardMask returns the bitmask of shards overlapped by
// [addr, addr+size), short-circuiting once every shard is included.
func regShardMask(addr mem.Addr, size int64) uint32 {
	if size <= 0 {
		size = 1
	}
	const full = uint32(1)<<regShards - 1
	first := uint64(addr) >> regGranuleBits
	last := (uint64(addr) + uint64(size) - 1) >> regGranuleBits
	var mask uint32
	for g := first; g <= last; g++ {
		mask |= 1 << regShardOf(mem.Addr(g<<regGranuleBits))
		if mask == full {
			break
		}
	}
	return mask
}

// span is one [addr, end) interval carrying its registry payload.
type span[T any] struct {
	addr, end mem.Addr
	val       *T
}

// spanSet is a set of non-overlapping intervals in address order. Writers
// edit spans in place under the owning shard's mutex and drop pub; readers
// binary-search pub, an immutable clone of spans, without a lock. The first
// reader to find no clone publishes one (republish). A published clone is
// never written again, so a reader still holding an older one sees the
// registry as of that clone — Object.dead under Object.mu is what fences a
// freed object, not the registry.
type spanSet[T any] struct {
	spans []span[T]
	pub   atomic.Pointer[[]span[T]]
}

// find returns the payload of the span containing addr (nil if none) and
// the number of binary-search probes, which the fault handler charges as
// the §5.2 O(log2 n) search cost. sh is the shard owning s.
//
//adsm:noalloc
func (s *spanSet[T]) find(sh *regShard, addr mem.Addr) (*T, int64) {
	pub := s.pub.Load()
	if pub == nil {
		pub = s.republish(sh)
	}
	spans := *pub
	lo, hi := 0, len(spans)
	probes := int64(0)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		probes++
		sp := &spans[mid]
		switch {
		case addr < sp.addr:
			hi = mid
		case addr >= sp.end:
			lo = mid + 1
		default:
			return sp.val, probes
		}
	}
	if probes == 0 {
		probes = 1 // even the empty registry costs one probe to miss
	}
	return nil, probes
}

// republish clones spans for the lock-free readers, unless a racing reader
// already has. The allocation is amortised over every lookup until the next
// Alloc or Free touching the shard.
//
//adsm:cold
func (s *spanSet[T]) republish(sh *regShard) *[]span[T] {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if pub := s.pub.Load(); pub != nil {
		return pub
	}
	clone := slices.Clone(s.spans)
	s.pub.Store(&clone)
	sh.clones.Add(1)
	return &clone
}

// lowerBound returns the index of the first span starting at or after addr.
func (s *spanSet[T]) lowerBound(addr mem.Addr) int {
	return sort.Search(len(s.spans), func(i int) bool { return s.spans[i].addr >= addr })
}

// insert splices run, a non-empty address-ordered run of spans, into the
// set in one move. Nothing already in the set may overlap the range the run
// covers: shared objects never overlap. The caller holds the shard mutex.
func (s *spanSet[T]) insert(run []span[T]) error {
	prev := run[0].addr
	for _, sp := range run {
		if sp.end <= sp.addr || sp.addr < prev {
			return fmt.Errorf("core: invalid interval [%#x,%#x)", uint64(sp.addr), uint64(sp.end))
		}
		prev = sp.end
	}
	addr, end := run[0].addr, prev
	i := s.lowerBound(addr)
	for _, n := range s.spans[max(i-1, 0):min(i+1, len(s.spans))] {
		if addr < n.end && n.addr < end {
			return fmt.Errorf("core: interval [%#x,%#x) overlaps [%#x,%#x)",
				uint64(addr), uint64(end), uint64(n.addr), uint64(n.end))
		}
	}
	s.spans = slices.Insert(s.spans, i, run...)
	s.pub.Store(nil)
	return nil
}

// remove deletes every span starting inside [addr, end) and returns how
// many there were. The caller holds the shard mutex.
func (s *spanSet[T]) remove(addr, end mem.Addr) int {
	i, j := s.lowerBound(addr), s.lowerBound(end)
	if i == j {
		return 0
	}
	s.spans = slices.Delete(s.spans, i, j)
	s.pub.Store(nil)
	return j - i
}

// regShard is one slice of the registry.
type regShard struct {
	// mu guards both sets' spans and the publication of their clones.
	// Shards are locked one at a time, never nested, so all shards share
	// the treeMu level of the hierarchy.
	//
	//adsm:lock treeMu 30
	mu      sync.Mutex
	objects spanSet[Object] // Object intervals, host VA order
	blocks  spanSet[Block]  // Block intervals: the fault handler's search set
	// clones counts published clones. Deliberately not a Stats counter: the
	// count depends on scheduling, so it would break replay conformance.
	clones atomic.Int64
}

// registry is the sharded object/block registry.
type registry struct {
	shards   [regShards]regShard
	nobjects atomic.Int64
}

// insertObject publishes o (and its blocks) to every shard its address
// range overlaps. Insert failures can only come from overlapping
// intervals — a manager bug, since the VA space never double-allocates —
// and are returned with the registry partially updated.
func (r *registry) insertObject(o *Object) error {
	mask := regShardMask(o.addr, o.size)
	var run []span[Block]
	for s := 0; s < regShards; s++ {
		if mask&(1<<s) == 0 {
			continue
		}
		// Nothing else can sit inside o's range, so o's blocks on this shard
		// are adjacent in the shard's block set and go in as one splice.
		run = run[:0]
		for _, b := range o.blocks {
			if regShardMask(b.addr, b.size)&(1<<s) != 0 {
				run = append(run, span[Block]{b.addr, b.addr + mem.Addr(b.size), b})
			}
		}
		sh := &r.shards[s]
		sh.mu.Lock()
		err := sh.objects.insert([]span[Object]{{o.addr, o.addr + mem.Addr(o.size), o}})
		if err == nil && len(run) > 0 {
			err = sh.blocks.insert(run)
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	r.nobjects.Add(1)
	return nil
}

// removeObject withdraws o from every shard it was published to.
func (r *registry) removeObject(o *Object) {
	mask := regShardMask(o.addr, o.size)
	end := o.addr + mem.Addr(o.size)
	for s := 0; s < regShards; s++ {
		if mask&(1<<s) == 0 {
			continue
		}
		sh := &r.shards[s]
		sh.mu.Lock()
		sh.objects.remove(o.addr, end)
		sh.blocks.remove(o.addr, end)
		sh.mu.Unlock()
	}
	r.nobjects.Add(-1)
}

// objectAt returns the object containing addr, or nil.
//
//adsm:noalloc
func (r *registry) objectAt(addr mem.Addr) *Object {
	sh := &r.shards[regShardOf(addr)]
	o, _ := sh.objects.find(sh, addr)
	return o
}

// blockAt resolves the fault handler's block lookup against addr's shard:
// the block containing addr (nil if unshared) and the probe count charged
// as §5.2 search cost.
//
//adsm:noalloc
func (r *registry) blockAt(addr mem.Addr) (*Block, int64) {
	sh := &r.shards[regShardOf(addr)]
	return sh.blocks.find(sh, addr)
}

// snapshot returns the live objects in address order. Each object is
// collected from its home shard only (the shard of its start address), so
// multi-shard objects appear exactly once; the final sort restores the
// global address order.
func (r *registry) snapshot() []*Object {
	objs := make([]*Object, 0, r.nobjects.Load())
	for s := range r.shards {
		sh := &r.shards[s]
		sh.mu.Lock()
		for _, sp := range sh.objects.spans {
			if regShardOf(sp.addr) == s {
				objs = append(objs, sp.val)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].addr < objs[j].addr })
	return objs
}

// rebuilds sums the clones published across shards (the rebuild-storm
// regression test's observable).
func (r *registry) rebuilds() int64 {
	var n int64
	for s := range r.shards {
		n += r.shards[s].clones.Load()
	}
	return n
}
