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
// keeps its objects in one spanSet; a block is found by arithmetic inside
// the object that set returns.
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

// span is one object's [addr, end) interval on a shard. blocks counts the
// object's blocks on that shard; before, set only in a published clone,
// counts the blocks of the spans ahead of it. A published clone ends in an
// empty span above every address, whose before is the shard's block count.
type span struct {
	addr, end      mem.Addr
	obj            *Object
	blocks, before int
}

// spanSet is a set of non-overlapping object intervals in address order.
// Readers binary-search pub, an immutable clone of spans, without a lock.
// Writers edit spans in place under the owning shard's mutex. If a clone is
// published, readers are using the set, so the writer publishes a fresh
// one before it unlocks and no lookup pays for the clone; if none is, pub
// stays nil and the first reader publishes one (republish), so a run of
// Allocs before any lookup costs one clone, not one per insert. A published
// clone is never written again, so a reader still holding an older one sees
// the registry as of that clone — Object.dead under Object.mu is what
// fences a freed object, not the registry.
type spanSet struct {
	spans []span
	pub   atomic.Pointer[[]span]
}

// find binary-searches the published spans for addr and returns them with
// the index of the span containing addr (hit) or, on a miss, of the first
// span above it. sh is the shard owning s.
//
//adsm:noalloc
func (s *spanSet) find(sh *regShard, addr mem.Addr) (spans []span, i int, hit bool) {
	pub := s.pub.Load()
	if pub == nil {
		pub = s.republish(sh)
	}
	spans = *pub
	lo, hi := 0, len(spans)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		sp := &spans[mid]
		switch {
		case addr < sp.addr:
			hi = mid
		case addr >= sp.end:
			lo = mid + 1
		default:
			return spans, mid, true
		}
	}
	return spans, lo, false
}

// republish publishes a clone of spans unless a racing reader or a writer
// already has. The allocation is amortised over every lookup until the next
// Alloc or Free touching the shard, which republishes in turn.
//
//adsm:cold
func (s *spanSet) republish(sh *regShard) *[]span {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if pub := s.pub.Load(); pub != nil {
		return pub
	}
	return s.publish(sh)
}

// publish stores a clone of spans, with each span's before and the end
// span, as pub and counts it on sh. The caller holds sh.mu.
func (s *spanSet) publish(sh *regShard) *[]span {
	clone := slices.Concat(s.spans, []span{{addr: ^mem.Addr(0), end: ^mem.Addr(0)}})
	n := 0
	for i := range clone {
		clone[i].before = n
		n += clone[i].blocks
	}
	s.pub.Store(&clone)
	sh.clones.Add(1)
	return &clone
}

// edited keeps pub in step with an edit of spans: a fresh clone if readers
// hold one, else none. The caller holds sh.mu.
func (s *spanSet) edited(sh *regShard) {
	if s.pub.Load() != nil {
		s.publish(sh)
	}
}

// lowerBound returns the index of the first span starting at or after addr.
func (s *spanSet) lowerBound(addr mem.Addr) int {
	return sort.Search(len(s.spans), func(i int) bool { return s.spans[i].addr >= addr })
}

// insert adds sp to the set. Nothing already in the set may overlap it:
// shared objects never overlap. The caller holds sh.mu.
func (s *spanSet) insert(sh *regShard, sp span) error {
	if sp.end <= sp.addr {
		return fmt.Errorf("core: invalid interval [%#x,%#x)", uint64(sp.addr), uint64(sp.end))
	}
	i := s.lowerBound(sp.addr)
	for _, n := range s.spans[max(i-1, 0):min(i+1, len(s.spans))] {
		if sp.addr < n.end && n.addr < sp.end {
			return fmt.Errorf("core: interval [%#x,%#x) overlaps [%#x,%#x)",
				uint64(sp.addr), uint64(sp.end), uint64(n.addr), uint64(n.end))
		}
	}
	s.spans = slices.Insert(s.spans, i, sp)
	s.edited(sh)
	return nil
}

// remove deletes every span starting inside [addr, end) and returns how
// many there were. The caller holds sh.mu.
func (s *spanSet) remove(sh *regShard, addr, end mem.Addr) int {
	i, j := s.lowerBound(addr), s.lowerBound(end)
	if i == j {
		return 0
	}
	s.spans = slices.Delete(s.spans, i, j)
	s.edited(sh)
	return j - i
}

// regShard is one slice of the registry.
type regShard struct {
	// mu guards the set's spans and the publication of its clones. Shards
	// are locked one at a time, never nested, so all shards share the
	// treeMu level of the hierarchy.
	//
	//adsm:lock treeMu 30
	mu      sync.Mutex
	objects spanSet // object intervals in host VA order: the shard's one lookup structure
	// clones counts published clones. Deliberately not a Stats counter: the
	// count depends on scheduling, so it would break replay conformance.
	clones atomic.Int64
}

// registry is the sharded object/block registry.
type registry struct {
	shards   [regShards]regShard
	nobjects atomic.Int64
}

// insertObject publishes o to every shard its address range overlaps.
// Insert failures can only come from overlapping intervals — a manager
// bug, since the VA space never double-allocates — and are returned with
// the registry partially updated.
func (r *registry) insertObject(o *Object) error {
	mask := regShardMask(o.addr, o.size)
	blocks := o.rankShards(mask)
	for s := 0; s < regShards; s++ {
		if mask&(1<<s) == 0 {
			continue
		}
		sh := &r.shards[s]
		sh.mu.Lock()
		err := sh.objects.insert(sh, span{addr: o.addr, end: o.addr + mem.Addr(o.size), obj: o, blocks: blocks[s]})
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
		sh.objects.remove(sh, o.addr, end)
		sh.mu.Unlock()
	}
	r.nobjects.Add(-1)
}

// objectAt returns the object containing addr, or nil.
//
//adsm:noalloc
func (r *registry) objectAt(addr mem.Addr) *Object {
	sh := &r.shards[regShardOf(addr)]
	if spans, i, hit := sh.objects.find(sh, addr); hit {
		return spans[i].obj
	}
	return nil
}

// blockAt resolves the fault handler's block lookup against addr's shard:
// the block containing addr (nil if unshared), found inside its object by
// arithmetic, and the §5.2 search cost: the probes of a binary search over
// the shard's blocks, which depend only on their count and addr's place.
//
//adsm:noalloc
func (r *registry) blockAt(addr mem.Addr) (*Block, int64) {
	sh := &r.shards[regShardOf(addr)]
	spans, j, hit := sh.objects.find(sh, addr)
	i := spans[j].before // addr's position among the shard's blocks
	var b *Block
	if hit {
		o := spans[j].obj
		if b = o.BlockAt(addr); b != nil {
			i += o.rank(addr, b)
		}
	}
	return b, searchDepth(spans[len(spans)-1].before, i, b != nil)
}

// searchDepth replays, on indices alone, a binary search of n sorted
// blocks for the one at index i (hit) or for an address falling just below
// index i (miss), and returns its probe count. Even an empty search costs
// one probe to miss.
//
//adsm:noalloc
func searchDepth(n, i int, hit bool) int64 {
	key := 2 * i // doubled, so that a miss falls between two blocks
	if !hit {
		key--
	}
	lo, hi := 0, n
	probes := int64(0)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		probes++
		if key == 2*mid {
			return probes
		}
		// Written for a conditional move: the direction is data-dependent
		// and a mispredicted branch costs more than the whole step.
		nlo, nhi := mid+1, hi
		if key < 2*mid {
			nlo, nhi = lo, mid
		}
		lo, hi = nlo, nhi
	}
	return max(probes, 1)
}

// snapshot returns the live objects in address order. Each object is
// collected from its home shard only (the shard of its start address), so
// multi-shard objects appear exactly once; the final sort restores the
// global address order. The caller visits them holding no shard lock.
func (r *registry) snapshot() []*Object {
	objs := make([]*Object, 0, r.nobjects.Load())
	for s := range r.shards {
		sh := &r.shards[s]
		sh.mu.Lock()
		for _, sp := range sh.objects.spans {
			if regShardOf(sp.addr) == s {
				objs = append(objs, sp.obj)
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

// IsShared reports whether addr falls inside a live shared object.
func (m *Manager) IsShared(addr mem.Addr) bool { return m.reg.objectAt(addr) != nil }

// ObjectAt exposes the object lookup for the public API layer.
func (m *Manager) ObjectAt(addr mem.Addr) *Object { return m.reg.objectAt(addr) }

// Translate implements adsmSafe: it maps a host pointer into the
// accelerator address of the same byte, for passing to kernels.
func (m *Manager) Translate(addr mem.Addr) (mem.Addr, error) {
	o := m.reg.objectAt(addr)
	if o == nil {
		return 0, fmt.Errorf("%w: translate %#x", ErrNotShared, uint64(addr))
	}
	return o.devAddr + (addr - o.addr), nil
}
