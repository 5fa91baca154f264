package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/accel"
	"repro/internal/bitmap"
	"repro/internal/mem"
)

// State is the coherence state of a shared memory block, as defined by the
// Figure 6 state machine. The state is tracked from the CPU's perspective:
// the accelerator never performs coherence actions.
//
//adsm:statecase
type State uint8

// Block states.
const (
	// StateInvalid: the only valid copy is in accelerator memory; a CPU
	// access must transfer the block back first.
	StateInvalid State = iota
	// StateReadOnly: CPU and accelerator hold identical copies; no
	// transfer is needed before the next kernel invocation.
	StateReadOnly
	// StateDirty: the CPU copy is newer and must be transferred to the
	// accelerator before the next kernel invocation.
	StateDirty
)

var stateNames = [...]string{StateInvalid: "Invalid", StateReadOnly: "ReadOnly", StateDirty: "Dirty"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Block is the unit of coherence bookkeeping. An object has exactly one
// block spanning it, unless its policy carves it into fixed-size blocks
// (the last one may be short).
type Block struct {
	obj   *Object
	index int
	addr  mem.Addr // host virtual address of the block start
	size  int64
	// state is guarded by obj.mu.
	state State
	// current means the device copy equals the host copy on every page of
	// the block whose bit in obj.dirty is clear, or holds the newer bytes of
	// a page owed to the host (obj.owed), so a write-back need only move the
	// dirty pages. A completed fetch or flush sets it (settle);
	// StateInvalid, which every kernel call that may write the block sets,
	// and a fresh block leave it clear. Guarded by obj.mu.
	current bool
	// queued marks blocks currently held in the rolling cache; it is owned
	// by the rollingCache and only touched under its lock.
	queued bool
}

// Size returns the block length in bytes.
func (b *Block) Size() int64 { return b.size }

// State returns the block's coherence state.
func (b *Block) State() State { return b.state }

// devAddr returns the accelerator address corresponding to the block start.
func (b *Block) devAddr() mem.Addr {
	return b.obj.devAddr + (b.addr - b.obj.addr)
}

// hostBytes returns the live host backing bytes of the block.
func (b *Block) hostBytes() []byte {
	return b.obj.mapping.Space.Bytes(b.addr, b.size)
}

// ObjStats is a point-in-time copy of one object's activity counters: the
// per-object attribution that lets reports rank objects by fault and
// transfer traffic the way Figure 8 ranks benchmarks.
type ObjStats struct {
	Faults       int64 `json:"faults"`
	ReadFaults   int64 `json:"read_faults"`
	WriteFaults  int64 `json:"write_faults"`
	BytesH2D     int64 `json:"bytes_h2d"`
	BytesD2H     int64 `json:"bytes_d2h"`
	TransfersH2D int64 `json:"transfers_h2d"`
	TransfersD2H int64 `json:"transfers_d2h"`
	Evictions    int64 `json:"evictions"`
}

// objCounters is the backing store for ObjStats, folded by apply from the
// ops emitted for the object. The object's lock serialises the fault, byte
// and transfer rows: every OpFault, OpFetch and OpFlush of the object is
// emitted under its mu, and load runs under it. evictions is atomic,
// because a cross-object OpEvict is emitted under the faulting object's
// lock, not the victim's. A fault is counted once, by access kind.
type objCounters struct {
	readFaults, writeFaults    int64
	bytesH2D, bytesD2H         int64
	transfersH2D, transfersD2H int64
	evictions                  atomic.Int64
}

// load copies the counters into an ObjStats value. The caller holds the
// object's mu.
func (c *objCounters) load() ObjStats {
	return ObjStats{
		Faults:       c.readFaults + c.writeFaults,
		ReadFaults:   c.readFaults,
		WriteFaults:  c.writeFaults,
		BytesH2D:     c.bytesH2D,
		BytesD2H:     c.bytesD2H,
		TransfersH2D: c.transfersH2D,
		TransfersD2H: c.transfersD2H,
		Evictions:    c.evictions.Load(),
	}
}

// copyCounts is the copy ruler: the bytes of simulated memory the manager
// copies, as opposed to the bytes the cost model charges (Stats.BytesD2H,
// Stats.BytesH2D). landed counts the bytes a D2H transfer copied (a fetch
// that owes nothing, or a bulk read of an Invalid block), pulled the owed
// bytes copied into host memory (pull), readThrough the owed bytes a read
// took straight from device memory (readHost), and sent the bytes an H2D
// write-back copied into device memory (the pages its mask selects). They
// are plain integers in each object's row, guarded by its mu, and in
// neither Stats nor the metrics.
type copyCounts struct {
	landed, pulled, readThrough, sent int64
}

// Object is one shared data structure allocated through adsmAlloc. It owns
// a host mapping and a device allocation; in the common case both live at
// the same numeric address (the shared-address-space trick of §4.2), while
// Safe allocations (AllocSpec.Safe) carry distinct addresses and require
// translation.
type Object struct {
	// mu is the paper's per-object lock (§4): every host access to the
	// object's bytes — and every coherence action on its blocks — runs
	// under it, so faults on different objects are serviced in parallel
	// while accesses to one object serialise. Block states, host byte
	// contents, page protections of the object's range, and dead are all
	// guarded by mu. The immutable identity fields (addr, devAddr, size,
	// safe, vm, vmPhys, mapping, blocks slice, ranks, kernels) are set
	// before the object is published to the registry and never change.
	//
	//adsm:lock objectMu 20
	mu sync.Mutex
	// dead marks a freed object: lookups that raced with Free find the
	// object, take mu, and must re-check dead before touching anything.
	dead    bool
	addr    mem.Addr // host virtual address
	devAddr mem.Addr // accelerator address
	size    int64
	safe    bool // allocated with AllocSpec.Safe (addr != devAddr possible)
	// vmPhys is the physical device allocation backing a virtual-memory
	// mapping (devices with an MMU, §4.2); zero when identity-mapped.
	vmPhys  mem.Addr
	vm      bool
	mapping *mem.Mapping
	blocks  []*Block
	// ranks places blocks among the registry shard's blocks for an object
	// on several shards (rankShards); nil for a one-shard object.
	ranks []int
	// kernels restricts which accelerator kernels use this object (§3.3's
	// "more elaborate scheme"); nil means every kernel (the minimal API).
	kernels map[string]bool
	// seq is the manager-local allocation sequence number (1-based): the
	// stable object identity in recorded op streams, where addresses are
	// not reproducible. Set before publication, immutable.
	seq uint32
	// mode is the declared access mode (mode.go). Immutable after
	// publication; ModeReadWrite (the zero value) is the paper's default.
	mode AccessMode
	// pol is the coherence policy governing this object (protocol.go): the
	// manager's configured protocol, sealed once a ModeReadOnly object
	// seals. Guarded by mu.
	pol policy
	// Span-fault batching state (fault.go), guarded by mu: nextFaultIdx
	// is the block index the current sequential-fault streak predicts next
	// (-1 before the first fault), fetchSpan the current adaptive fetch
	// granularity in blocks (doubled up to maxFaultRun while the streak
	// holds, reset to 1 on a non-sequential fault).
	nextFaultIdx int
	fetchSpan    int
	// dirty has one bit per host page of the object, set by every host write
	// (markWritten) and cleared when the page's block is settled; pageShift
	// is log2 of the page size. The bitmap is allocated with the blocks and
	// guarded by mu.
	dirty     []uint64
	pageShift uint8
	// owed has one bit per host page, like dirty, set on the pages whose
	// current bytes the device holds and the host has not copied yet: a
	// fetch (a detecting object's fault, resolveFault, or a
	// host-authoritative acquire, acquireObject) pays for the whole D2H
	// transfer but lands nothing unless a fault injector is armed or a
	// fault's run is one page. A read
	// takes an owed page from the device (readHost); a write or HostBytes
	// view copies the pages it touches into host memory once the MMU check
	// has resolved its faults (pull), and so does a write-back on a device
	// armed since (pullArmed). No page is both owed and dirty,
	// and only a current or Invalid block owes pages (checkOwed). owedPages
	// counts the set bits: the one test on the paths that owe nothing.
	// owedArms is the device's Arms count at the last fetch that owed
	// pages. Both bitmaps are one allocation, guarded by mu.
	owed      []uint64
	owedPages int
	owedArms  uint64
	// copies is the object's row of the copy ruler (copyCounts), guarded
	// by mu.
	copies copyCounts
	// degraded marks an object that fell back to host-resident batch-update
	// semantics after its device was lost: all blocks Dirty and writable,
	// never transferred again. Set under mu; atomic because introspection
	// snapshots read it from HTTP goroutines without the lock.
	degraded atomic.Bool
	// counters attribute faults, transfers and evictions to this object;
	// guarded by mu but for evictions (objCounters).
	counters objCounters
}

// Stats returns a copy of the object's activity counters.
func (o *Object) Stats() ObjStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.counters.load()
}

// Addr returns the object's host virtual address.
func (o *Object) Addr() mem.Addr { return o.addr }

// Size returns the object's length in bytes.
func (o *Object) Size() int64 { return o.size }

// Safe reports whether the object was allocated with AllocSpec.Safe.
func (o *Object) Safe() bool { return o.safe }

// UsedBy reports whether kernel operates on this object: true for every
// kernel when the object carries no binding.
func (o *Object) UsedBy(kernel string) bool {
	if o.kernels == nil {
		return true
	}
	return o.kernels[kernel]
}

// Kernels returns the number of kernels the object is bound to (0 = all).
func (o *Object) Kernels() int { return len(o.kernels) }

// Blocks returns the number of blocks composing the object.
func (o *Object) Blocks() int { return len(o.blocks) }

// BlockAt returns the block containing the given host address.
func (o *Object) BlockAt(addr mem.Addr) *Block {
	if len(o.blocks) == 0 {
		return nil
	}
	blockSize := o.blocks[0].size
	if addr < o.addr || addr >= o.addr+mem.Addr(o.size) {
		return nil
	}
	i := int(int64(addr-o.addr) / blockSize)
	if i >= len(o.blocks) {
		i = len(o.blocks) - 1
	}
	b := o.blocks[i]
	if addr < b.addr || addr >= b.addr+mem.Addr(b.size) {
		return nil
	}
	return b
}

// rankShards returns how many of o's blocks lie on each shard of mask, o's
// shard mask. An object on several shards also gets ranks: per granule, the
// rank on its shard of the block holding its first byte (o's, in the first
// granule), less that block's index. The blocks from there to any address
// in the granule overlap it too, so rank need only add the index back.
func (o *Object) rankShards(mask uint32) (counts [regShards]int) {
	if bits.OnesCount32(mask) == 1 {
		counts[bits.TrailingZeros32(mask)] = len(o.blocks)
		return counts
	}
	g0 := uint64(o.addr) >> regGranuleBits
	o.ranks = make([]int, (uint64(o.addr)+uint64(o.size)-1)>>regGranuleBits-g0+1)
	g := 0
	for _, b := range o.blocks {
		for end := uint64(b.addr) + uint64(b.size); g < len(o.ranks) && (g0+uint64(g))<<regGranuleBits < end; g++ {
			o.ranks[g] = counts[regShardOf(mem.Addr((g0+uint64(g))<<regGranuleBits))] - b.index
		}
		for m := regShardMask(b.addr, b.size); m != 0; m &= m - 1 {
			counts[bits.TrailingZeros32(m)]++
		}
	}
	return counts
}

// rank returns b's position among o's blocks on the registry shard of addr,
// a byte of b.
//
//adsm:noalloc
func (o *Object) rank(addr mem.Addr, b *Block) int {
	if o.ranks == nil {
		return b.index
	}
	return o.ranks[uint64(addr)>>regGranuleBits-uint64(o.addr)>>regGranuleBits] + b.index
}

// chunk is the one step of a block-by-block walk over [addr, addr+n): the
// block containing addr, and how many of the n bytes fall inside it. addr
// must lie inside the object.
func (o *Object) chunk(addr mem.Addr, n int64) (*Block, int64) {
	b := o.BlockAt(addr)
	if rem := int64(b.addr) + b.size - int64(addr); rem < n {
		n = rem
	}
	return b, n
}

// makeBlocks divides the object into blocks of at most blockSize bytes, a
// multiple of pageSize, and allocates the page bitmaps, dirty and owed, in
// one slice.
func (o *Object) makeBlocks(blockSize, pageSize int64) {
	o.nextFaultIdx = -1 // no streak until the first fault lands
	o.fetchSpan = 1
	o.pageShift = uint8(bits.TrailingZeros64(uint64(pageSize)))
	words := ((o.size+pageSize-1)/pageSize + 63) / 64
	bitmaps := make([]uint64, 2*words)
	o.dirty, o.owed = bitmaps[:words:words], bitmaps[words:]
	if blockSize <= 0 || blockSize > o.size {
		blockSize = o.size
	}
	n := (o.size + blockSize - 1) / blockSize
	o.blocks = make([]*Block, 0, n)
	for off := int64(0); off < o.size; off += blockSize {
		size := blockSize
		if off+size > o.size {
			size = o.size - off
		}
		o.blocks = append(o.blocks, &Block{
			obj:   o,
			index: len(o.blocks),
			addr:  o.addr + mem.Addr(off),
			size:  size,
		})
	}
}

// pages returns the index range [lo, hi] of the host pages that
// [addr, addr+n) touches, n > 0.
func (o *Object) pages(addr mem.Addr, n int64) (lo, hi uint64) {
	off := uint64(addr - o.addr)
	return off >> o.pageShift, (off + uint64(n) - 1) >> o.pageShift
}

// markWritten records a host write of [addr, addr+n): every page it
// touches is dirty until its block is next settled. Every write into the
// host copy of a shared object calls it. The caller holds o.mu.
//
//adsm:noalloc
func (o *Object) markWritten(addr mem.Addr, n int64) {
	if n <= 0 {
		return
	}
	lo, hi := o.pages(addr, n)
	bitmap.Set(o.dirty, lo, hi+1)
}

// clean records that a flush of the n blocks from first has completed:
// the device holds the host's bytes on every page of the run, so its
// blocks are current and its pages clean. The pages a flush sends never
// owe (flushRunEager and flushBlockSync pull first on an armed device, and
// an unarmed one sends whole only a block that owes nothing), and the
// pages it does not send keep their owed bits. The caller holds o.mu.
//
//adsm:noalloc
func (o *Object) clean(first *Block, n int) {
	lo, hi := o.pages(first.addr, runSize(first, n))
	bitmap.Clear(o.dirty, lo, hi+1)
	for _, b := range o.blocks[first.index : first.index+n] {
		b.current = true
	}
}

// settle records that a fetch of the n blocks from first has completed:
// the run is clean and current, and either the fetch landed every page,
// whose owed bits it clears, or, with owe, it landed none and the host
// owes every page the device's bytes. The caller holds o.mu.
//
//adsm:noalloc
func (o *Object) settle(first *Block, n int, owe bool) {
	o.clean(first, n)
	if !owe && o.owedPages == 0 {
		return
	}
	lo, hi := o.pages(first.addr, runSize(first, n))
	if owe {
		o.owedPages += bitmap.Set(o.owed, lo, hi+1)
	} else {
		o.disown(lo, hi)
	}
}

// disown clears the owed bits of pages [lo, hi]: the host copy of each is
// about to hold its current bytes. The caller holds o.mu.
//
//adsm:noalloc
func (o *Object) disown(lo, hi uint64) {
	o.owedPages -= bitmap.Clear(o.owed, lo, hi+1)
}

// owes reports whether any of host pages [lo, hi] of the object is owed.
// The caller holds o.mu.
func (o *Object) owes(lo, hi uint64) bool {
	q, owed := o.owedRun(lo, hi)
	return owed || q <= hi
}

// owedRun returns the end q of the run of pages [p, q), q <= hi+1, that
// are all owed or all not, and which of the two. The caller holds o.mu.
//
//adsm:noalloc
func (o *Object) owedRun(p, hi uint64) (q uint64, owed bool) {
	return bitmap.Run(o.owed, p, hi+1)
}

// writeBackMask selects what a write-back of the n blocks from first must
// copy: only the pages written since the run was last settled, or all of
// it when some block is not current. The caller holds o.mu.
//
//adsm:noalloc
func (o *Object) writeBackMask(first *Block, n int) accel.PageMask {
	for _, b := range o.blocks[first.index : first.index+n] {
		if !b.current {
			return accel.PageMask{}
		}
	}
	lo, _ := o.pages(first.addr, 1)
	return accel.PageMask{Bits: o.dirty, First: int(lo), PageSize: 1 << o.pageShift}
}
