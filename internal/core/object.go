package core

import (
	"fmt"
	"sync"
	"sync/atomic"

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

// String is called on the traced fault path (emitTransition), so the
// known states return interned strings; only a corrupted state formats.
//
//adsm:noalloc
func (s State) String() string {
	switch s {
	case StateInvalid:
		return "Invalid"
	case StateReadOnly:
		return "ReadOnly"
	case StateDirty:
		return "Dirty"
	default:
		return stateStringSlow(s)
	}
}

// stateStringSlow formats an out-of-range State off the hot path.
//
//adsm:cold
func stateStringSlow(s State) string {
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Block is the unit of coherence bookkeeping. Under batch- and lazy-update
// each object has exactly one block spanning it; under rolling-update
// objects are divided into fixed-size blocks (the last one may be short).
type Block struct {
	obj   *Object
	index int
	addr  mem.Addr // host virtual address of the block start
	size  int64
	// state is guarded by obj.mu.
	state State
	// queued marks blocks currently held in the rolling cache; it is owned
	// by the rollingCache and only touched under its lock.
	queued bool
}

// Addr returns the block's host virtual address.
func (b *Block) Addr() mem.Addr { return b.addr }

// Size returns the block length in bytes.
func (b *Block) Size() int64 { return b.size }

// State returns the block's coherence state.
func (b *Block) State() State { return b.state }

// Object returns the shared object the block belongs to.
func (b *Block) Object() *Object { return b.obj }

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

// objCounters is the atomic backing store for ObjStats. The manager
// mutates it on the simulation goroutine while the introspection endpoint
// reads it from HTTP handlers, so every field is atomic.
type objCounters struct {
	faults, readFaults, writeFaults atomic.Int64
	bytesH2D, bytesD2H              atomic.Int64
	transfersH2D, transfersD2H      atomic.Int64
	evictions                       atomic.Int64
}

// load copies the counters into an ObjStats value.
func (c *objCounters) load() ObjStats {
	return ObjStats{
		Faults:       c.faults.Load(),
		ReadFaults:   c.readFaults.Load(),
		WriteFaults:  c.writeFaults.Load(),
		BytesH2D:     c.bytesH2D.Load(),
		BytesD2H:     c.bytesD2H.Load(),
		TransfersH2D: c.transfersH2D.Load(),
		TransfersD2H: c.transfersD2H.Load(),
		Evictions:    c.evictions.Load(),
	}
}

// Object is one shared data structure allocated through adsmAlloc. It owns
// a host mapping and a device allocation; in the common case both live at
// the same numeric address (the shared-address-space trick of §4.2), while
// SafeAlloc objects carry distinct addresses and require translation.
type Object struct {
	// mu is the paper's per-object lock (§4): every host access to the
	// object's bytes — and every coherence action on its blocks — runs
	// under it, so faults on different objects are serviced in parallel
	// while accesses to one object serialise. Block states, host byte
	// contents, page protections of the object's range, and dead are all
	// guarded by mu. The immutable identity fields (addr, devAddr, size,
	// safe, vm, vmPhys, mapping, blocks slice, kernels) are set before the
	// object is published to the registry and never change.
	//
	//adsm:lock objectMu 20
	mu sync.Mutex
	// dead marks a freed object: lookups that raced with Free find the
	// object, take mu, and must re-check dead before touching anything.
	dead    bool
	addr    mem.Addr // host virtual address
	devAddr mem.Addr // accelerator address
	size    int64
	safe    bool // allocated via SafeAlloc (addr != devAddr possible)
	// vmPhys is the physical device allocation backing a virtual-memory
	// mapping (devices with an MMU, §4.2); zero when identity-mapped.
	vmPhys  mem.Addr
	vm      bool
	mapping *mem.Mapping
	blocks  []*Block
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
	// proto is the coherence protocol governing this object. It equals the
	// manager's configured protocol except for ModeAuto objects, which
	// migrate online; mutated only under mu at acquire boundaries.
	proto ProtocolKind
	// sealed marks a ModeReadOnly object past its first kernel release:
	// replicated once, read-only protected, never flushed, fetched or
	// invalidated again. Guarded by mu.
	sealed bool
	// Auto-migration decision state (mode.go), guarded by mu: the acquire
	// boundaries seen, the counter snapshots at the last closed window,
	// and the pending vote with its consecutive-window streak.
	autoSyncs                          int
	autoFaults, autoWrites, autoEvicts int64
	autoVote                           ProtocolKind
	autoStreak                         int
	// Span-fault batching state (protocol.go), guarded by mu: nextFaultIdx
	// is the block index the current sequential-fault streak predicts next
	// (-1 before the first fault), fetchSpan the current adaptive fetch
	// granularity in blocks (doubled up to maxFaultRun while the streak
	// holds, reset to 1 on a non-sequential fault).
	nextFaultIdx int
	fetchSpan    int
	// degraded marks an object that fell back to host-resident batch-update
	// semantics after its device was lost: all blocks Dirty and writable,
	// never transferred again. Set under mu; atomic because introspection
	// snapshots read it from HTTP goroutines without the lock.
	degraded atomic.Bool
	// counters attribute faults, transfers and evictions to this object.
	counters objCounters
}

// Stats returns a copy of the object's activity counters.
func (o *Object) Stats() ObjStats { return o.counters.load() }

// Mode returns the object's declared access mode.
func (o *Object) Mode() AccessMode { return o.mode }

// Proto returns the coherence protocol currently governing the object
// (the manager's protocol, unless ModeAuto migrated it).
func (o *Object) Proto() ProtocolKind {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.proto
}

// Sealed reports whether a ModeReadOnly object has been replicated and
// sealed (no coherence traffic for the rest of its life).
func (o *Object) Sealed() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sealed
}

// Degraded reports whether the object has fallen back to host-resident
// semantics after a device loss.
func (o *Object) Degraded() bool { return o.degraded.Load() }

// Addr returns the object's host virtual address.
func (o *Object) Addr() mem.Addr { return o.addr }

// Seq returns the manager-local allocation sequence number identifying
// this object in recorded op streams.
func (o *Object) Seq() uint32 { return o.seq }

// DevAddr returns the object's accelerator address.
func (o *Object) DevAddr() mem.Addr { return o.devAddr }

// Size returns the object's length in bytes.
func (o *Object) Size() int64 { return o.size }

// Safe reports whether the object was allocated through SafeAlloc.
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

// makeBlocks divides the object into blocks of at most blockSize bytes.
func (o *Object) makeBlocks(blockSize int64) {
	o.nextFaultIdx = -1 // no streak until the first fault lands
	o.fetchSpan = 1
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

// countState returns how many blocks are in the given state.
func (o *Object) countState(s State) int {
	n := 0
	for _, b := range o.blocks {
		if b.state == s {
			n++
		}
	}
	return n
}
