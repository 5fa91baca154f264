// Package racecheck is a vector-clock data-race detector over the
// runtime's recorded coherence event stream (internal/oplog): Analyze
// takes a complete recorded Log and returns its report.
//
// The ADSM runtime observes every host access (through the MMU), every
// kernel launch, and every kernel's declared footprint (the §4.3 write-set
// annotations and the per-call read-only hints) — exactly the
// visibility Butelle & Coti exploit to detect races from DSM coherence
// events. The detector models three kinds of vector-clock components:
//
//   - each host lane (sim.Clock lane; lane 0 is the shared single-threaded
//     timeline) — an op's Lane field attributes it;
//   - each kernel invocation — a component with exactly one event, so its
//     clock is always 1 and "did X observe kernel K" degenerates to a
//     bitset membership test;
//   - each accelerator context (manager), represented by a cumulative join
//     clock: Sync waits for *all* kernels launched on the device
//     (dev.Synchronize), so the syncing lane joins the merge of every
//     kernel launched so far on that manager.
//
// Happens-before edges:
//
//   - program order within a lane;
//   - OpInvoke: the kernel component inherits the launching lane's clock
//     (launch edge);
//   - OpSync: the lane joins the manager's cumulative kernel clock
//     (completion edge).
//
// Conflicting accesses — host read/write/bulk/IO ops against kernel
// declared footprints, host vs. host on different lanes, and kernel vs.
// kernel overlapping footprints — that are not ordered by those edges are
// reported as races, with both access sites. Shadow state is kept per
// coherence block (Header.BlockSize granularity; whole-object when zero),
// matching the granularity at which the protocols move data.
//
// Limitations (see docs/race-detection.md): unannotated kernel launches
// have an unknown footprint and contribute no accesses (only their
// happens-before edges), so races involving them are missed rather than
// guessed at; kernel footprints are whole-object; derived protocol ops
// (faults, transfers, evictions) are ignored.
package racecheck

import (
	"sync"

	"repro/internal/mem"
	"repro/internal/oplog"
)

// maxRaces bounds the retained race reports; detection (and the total
// count) continues beyond it. Real runs report a handful; the bound keeps
// adversarial inputs (fuzzed streams) from pinning memory.
const maxRaces = 1024

// Detector consumes the ops of a decoded stream, in order, and accumulates
// race reports. Feed serialises internally, so any number of goroutines may
// feed concurrently; all other methods are safe to call at any time.
type Detector struct {
	// raceMu is a leaf below the note-intern table: Feed holds it while it
	// resolves interned strings (oplogNotesMu, 60), and no runtime lock is
	// held when Feed is called.
	//
	//adsm:lock raceMu 55 nowait
	mu        sync.Mutex
	blockSize int64

	lanes   map[uint32]*laneState
	objs    map[uint32]*objState
	mgrs    map[uint16]*mgrState
	kernels []string // kernel component id -> name

	races []Race
	seen  map[[2]uint64]bool // dedup: {prior, current} op indexes
	count int64
	nops  uint64 // ops fed, 1-based; sites carry it
}

// New builds a detector for streams recorded under the given configuration.
// The header fixes the shadow granularity (BlockSize; 0 = whole object).
func New(h oplog.Header) *Detector {
	return &Detector{
		blockSize: h.BlockSize,
		lanes:     make(map[uint32]*laneState),
		objs:      make(map[uint32]*objState),
		mgrs:      make(map[uint16]*mgrState),
		seen:      make(map[[2]uint64]bool),
	}
}

// Count returns the number of races detected so far (including any beyond
// the retained-report bound).
func (d *Detector) Count() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count
}

// Races returns a copy of the retained race reports, in detection order.
func (d *Detector) Races() []Race {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Race(nil), d.races...)
}

// laneState is one host lane's vector clock; vc.lanes[id] is the lane's
// own clock.
type laneState struct {
	vc vclock
}

// mgrState is one accelerator context: the cumulative clock of every kernel
// launched on it (what a Sync joins), and the annotation entries buffered
// per launching lane until their OpInvoke arrives.
type mgrState struct {
	join vclock
	pend map[uint32][]annot
}

// annot is one buffered OpAnnotate entry.
type annot struct {
	obj  uint32
	read bool
	site Site
}

// objState is one live object's shadow state.
type objState struct {
	base   mem.Addr
	size   int64
	blocks []blockShadow
}

// blockShadow is FastTrack-style per-block state: the last write and the
// set of reads since it (one entry per component).
type blockShadow struct {
	write *access
	reads []access
}

// access is one recorded access epoch: the component (kernel id, or -1 for
// a host lane), its clock at the access, and the reportable site.
type access struct {
	kernel int32
	lane   uint32
	clock  uint64
	site   Site
}

// Feed consumes one op. Derived protocol ops (faults, transfers,
// evictions, retries) and unknown kinds are ignored, so any stream —
// including fuzzed ones — is safe input.
//
// Feed allocates shadow state lazily (per first-seen lane, manager and
// object), which is fine: it runs over recorded streams, never on the
// runtime's paths, so the whole detector is //adsm:cold by design.
//
//adsm:cold
func (d *Detector) Feed(op oplog.Op) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nops++
	switch op.Kind {
	case oplog.OpAlloc:
		d.alloc(op)
	case oplog.OpFree:
		delete(d.objs, op.Obj)
	case oplog.OpAnnotate:
		d.annotate(op)
	case oplog.OpInvoke:
		d.invoke(op)
	case oplog.OpSync:
		// Sync waits for every launched kernel (dev.Synchronize) before
		// re-acquiring for the CPU: the lane joins the manager clock.
		ls := d.lane(op.Lane)
		ls.advance(op.Lane)
		ls.vc.merge(&d.mgr(op.Mgr).join)
	default:
		if access, write := op.HostAccess(); access {
			d.hostAccess(op, write)
		}
	}
	// OpArg and every derived op carry no access and no new ordering edge.
}

func (d *Detector) lane(id uint32) *laneState {
	ls := d.lanes[id]
	if ls == nil {
		ls = &laneState{vc: vclock{lanes: map[uint32]uint64{}}}
		d.lanes[id] = ls
	}
	return ls
}

func (ls *laneState) advance(id uint32) uint64 {
	c := ls.vc.lanes[id] + 1
	ls.vc.lanes[id] = c
	return c
}

func (d *Detector) mgr(id uint16) *mgrState {
	ms := d.mgrs[id]
	if ms == nil {
		ms = &mgrState{join: vclock{lanes: map[uint32]uint64{}}, pend: map[uint32][]annot{}}
		d.mgrs[id] = ms
	}
	return ms
}

func (d *Detector) alloc(op oplog.Op) {
	if op.Obj == 0 || op.Size <= 0 {
		return
	}
	nblocks := 1
	if d.blockSize > 0 {
		nblocks = int((op.Size + d.blockSize - 1) / d.blockSize)
	}
	d.objs[op.Obj] = &objState{base: op.Addr, size: op.Size,
		blocks: make([]blockShadow, nblocks)}
}

// annotate buffers one footprint entry of the next OpInvoke on the same
// (manager, lane): annotations are recorded immediately before their
// invoke, but other lanes' ops may interleave in the stream.
func (d *Detector) annotate(op oplog.Op) {
	if op.Obj == 0 {
		return
	}
	ms := d.mgr(op.Mgr)
	ms.pend[op.Lane] = append(ms.pend[op.Lane], annot{
		obj:  op.Obj,
		read: op.Flags&oplog.FlagHintRead != 0,
		site: Site{Lane: op.Lane, Obj: op.Obj, At: op.At, OpIndex: d.nops},
	})
}

// invoke creates the kernel component: it inherits the launching lane's
// clock, performs the kernel's declared footprint accesses, and merges into
// the manager's cumulative join clock. An unannotated kernel has an empty
// footprint — only its ordering edges are modelled.
func (d *Detector) invoke(op oplog.Op) {
	ls := d.lane(op.Lane)
	ls.advance(op.Lane)
	kid := len(d.kernels)
	name := oplog.NoteString(op.Note)
	d.kernels = append(d.kernels, name)
	kvc := ls.vc.clone()
	kvc.kset.set(kid)

	ms := d.mgr(op.Mgr)
	for _, a := range ms.pend[op.Lane] {
		obj := d.objs[a.obj]
		if obj == nil {
			continue
		}
		site := a.site
		site.Kernel = name
		site.Addr = uint64(obj.base)
		site.Size = obj.size
		if a.read {
			site.Op = "kernel-read"
		} else {
			site.Op = "kernel-write"
		}
		cur := access{kernel: int32(kid), lane: op.Lane, clock: 1, site: site}
		d.access(obj, obj.base, obj.size, !a.read, cur, &kvc)
	}
	delete(ms.pend, op.Lane)
	ms.join.merge(&kvc)
}

func (d *Detector) hostAccess(op oplog.Op, write bool) {
	obj := d.objs[op.Obj]
	if obj == nil || op.Size <= 0 {
		return
	}
	ls := d.lane(op.Lane)
	c := ls.advance(op.Lane)
	cur := access{kernel: -1, lane: op.Lane, clock: c, site: Site{
		Op: op.Kind.String(), Lane: op.Lane, Obj: op.Obj,
		Addr: uint64(op.Addr), Size: op.Size, At: op.At, OpIndex: d.nops,
	}}
	d.access(obj, op.Addr, op.Size, write, cur, &ls.vc)
}

// access runs cur (a write or read of [addr, addr+size) under vector clock
// vc) against the object's shadow blocks, reporting conflicts and updating
// the shadow.
func (d *Detector) access(obj *objState, addr mem.Addr, size int64, write bool, cur access, vc *vclock) {
	off := int64(addr - obj.base)
	if off < 0 || off >= obj.size || size <= 0 {
		return
	}
	if end := obj.size - off; size > end {
		size = end
	}
	first, last := 0, 0
	if d.blockSize > 0 {
		first = int(off / d.blockSize)
		last = int((off + size - 1) / d.blockSize)
	}
	if last >= len(obj.blocks) {
		last = len(obj.blocks) - 1
	}
	for i := first; i <= last; i++ {
		b := &obj.blocks[i]
		blockAddr := uint64(obj.base) + uint64(i)*uint64(d.blockSize)
		if w := b.write; w != nil && !sameComponent(*w, cur) && !happensBefore(*w, vc) {
			kind := "write-read"
			if write {
				kind = "write-write"
			}
			d.report(kind, cur.site.Obj, blockAddr, *w, cur)
		}
		if write {
			for _, r := range b.reads {
				if !sameComponent(r, cur) && !happensBefore(r, vc) {
					d.report("read-write", cur.site.Obj, blockAddr, r, cur)
				}
			}
			w := cur
			b.write = &w
			b.reads = b.reads[:0]
		} else {
			replaced := false
			for j := range b.reads {
				if sameComponent(b.reads[j], cur) {
					b.reads[j] = cur
					replaced = true
					break
				}
			}
			if !replaced {
				b.reads = append(b.reads, cur)
			}
		}
	}
}

// happensBefore reports whether access a is ordered before the vector
// clock vc: kernel components by bitset membership (their clock is always
// 1), lane components by clock comparison.
func happensBefore(a access, vc *vclock) bool {
	if a.kernel >= 0 {
		return vc.kset.has(int(a.kernel))
	}
	return vc.lanes[a.lane] >= a.clock
}

// sameComponent reports whether two accesses belong to the same vector-
// clock component (ordered by program order by construction).
func sameComponent(a, b access) bool {
	if a.kernel >= 0 || b.kernel >= 0 {
		return a.kernel == b.kernel
	}
	return a.lane == b.lane
}

// report records one race, deduplicating by the two sites' op indexes (a
// multi-block access pair races once, not once per block).
func (d *Detector) report(kind string, obj uint32, blockAddr uint64, prior, cur access) {
	key := [2]uint64{prior.site.OpIndex, cur.site.OpIndex}
	if d.seen[key] {
		return
	}
	d.seen[key] = true
	d.count++
	if len(d.races) < maxRaces {
		d.races = append(d.races, Race{Kind: kind, Obj: obj, Addr: blockAddr, Prior: prior.site, Access: cur.site})
	}
}

// --- vector clocks ---

// vclock is a sparse vector clock: per-lane scalar clocks plus the set of
// kernel components whose (single) event it has observed.
type vclock struct {
	lanes map[uint32]uint64
	kset  bitset
}

func (v *vclock) clone() vclock {
	out := vclock{lanes: make(map[uint32]uint64, len(v.lanes))}
	for k, c := range v.lanes {
		out.lanes[k] = c
	}
	out.kset = append(bitset(nil), v.kset...)
	return out
}

func (v *vclock) merge(o *vclock) {
	for k, c := range o.lanes {
		if v.lanes[k] < c {
			v.lanes[k] = c
		}
	}
	v.kset.or(o.kset)
}

// bitset is a growable bitmap over kernel component ids.
type bitset []uint64

func (b *bitset) set(i int) {
	w := i >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

func (b bitset) has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

func (b *bitset) or(o bitset) {
	for len(*b) < len(o) {
		*b = append(*b, 0)
	}
	for i, w := range o {
		(*b)[i] |= w
	}
}
