package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/hostmmu"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/oplog"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ProtocolKind selects one of the three coherence protocols of Figure 6.
//
//adsm:statecase
type ProtocolKind int

// The coherence protocols evaluated in Section 5.1.
const (
	// BatchUpdate transfers every shared object in both directions at
	// every call/return boundary — the naive write-invalidate protocol
	// programmers tend to write first.
	BatchUpdate ProtocolKind = iota
	// LazyUpdate detects CPU accesses with memory protection hardware at
	// object granularity and transfers only what is needed.
	LazyUpdate
	// RollingUpdate refines lazy-update with fixed-size blocks and a
	// bounded rolling cache of dirty blocks that are eagerly and
	// asynchronously flushed to the accelerator.
	RollingUpdate
)

func (k ProtocolKind) String() string {
	switch k {
	case BatchUpdate:
		return "batch-update"
	case LazyUpdate:
		return "lazy-update"
	case RollingUpdate:
		return "rolling-update"
	default:
		return fmt.Sprintf("ProtocolKind(%d)", int(k))
	}
}

// ErrNotShared is returned for operations on addresses that are not part of
// any shared object.
var ErrNotShared = errors.New("core: address is not in a shared object")

// ErrSpansObjects is returned when a single host access crosses the end of
// a shared object.
var ErrSpansObjects = errors.New("core: access crosses a shared object boundary")

// ErrAddrConflict is returned by Alloc when the accelerator-chosen address
// range is already occupied in the host address space: the §4.2 conflict
// that requires the Safe (adsmSafeAlloc) fallback.
var ErrAddrConflict = errors.New("core: shared address range conflicts with host mapping")

// errDead formats the ErrNotShared error for accesses racing with Free.
func errDead(addr mem.Addr) error {
	return fmt.Errorf("%w: access at %#x", ErrNotShared, uint64(addr))
}

// Config parameterises a Manager.
type Config struct {
	// Protocol selects the coherence protocol.
	Protocol ProtocolKind
	// BlockSize is the rolling-update block size in bytes. It must be a
	// multiple of the host page size. Ignored by batch and lazy.
	BlockSize int64
	// FixedRolling pins the rolling size for the Figure 12 experiment.
	FixedRolling int
	// DisableFaultBatching turns off span-fault service: every host fault
	// fetches exactly its own block, the paper's one-slow-path-per-block
	// behaviour. The default (batching on) resolves the whole
	// address-contiguous run of Invalid blocks the adaptive streak
	// detector predicts in one DMA — the fetch-side mirror of eviction
	// coalescing. For A/B comparison; data results are byte-identical
	// either way.
	DisableFaultBatching bool

	// Host-side costs of the GMAC API entry points.
	MallocCost, FreeCost, LaunchCost sim.Time
	// TreeNodeCost is charged per tree node visited during the fault
	// handler's block search (§5.2: the O(log2 n) overhead).
	TreeNodeCost sim.Time
	// MprotectCost is charged per protection change.
	MprotectCost sim.Time

	// MaxRetries bounds the transparent retries of injected transfer and
	// launch faults: 0 selects DefaultMaxRetries, negative disables
	// retrying (the first transient fault escalates).
	MaxRetries int
}

// Manager is the GMAC shared-memory manager: it owns the shared address
// space, the object/block registry, and drives the coherence protocol from
// the CPU side. One Manager manages one accelerator; gmac.MultiContext
// composes several.
//
// The manager is safe for concurrent use by many host goroutines — the
// paper's design point of a multithreaded CPU application faulting into
// accelerator-hosted objects. The lock discipline, from outermost in:
//
//   - Object.mu: taken first by every host-access path; faults on
//     different objects are serviced fully in parallel.
//   - callMu: serialises Invoke/Sync (one call/return window at a time per
//     accelerator) and guards invokeKernel and launched. Never held with
//     an Object.mu already held.
//   - treeMu: the per-shard mutexes of the sharded registry
//     (registry.go). Shards are locked one at a time, never nested, and
//     may be taken while holding Object.mu (the fault path republishing a
//     shard's spans); no code path acquires Object.mu while holding a
//     shard lock, so the order Object.mu → treeMu is acyclic.
//   - flushMu, evictMu, rollingCache.mu, and the MMU/device/clock locks
//     are leaves: nothing else is acquired under them. The aggregate stats
//     are plain atomics (statsCounters) and take no lock at all.
//
// Cross-object rolling evictions are the one place a fault on object A
// must touch object B: the fault path defers those victims to evictQ and
// every host entry point drains the queue after releasing its own object
// lock, so no two Object.mu are ever held at once.
type Manager struct {
	cfg   Config
	clock *sim.Clock
	bd    *sim.Breakdown
	mmu   *hostmmu.MMU
	va    *mem.VASpace
	dev   *accel.Device

	// reg is the sharded object/block registry (registry.go): per-shard
	// sorted span sets that faulting lanes search without a lock.
	reg     registry
	rolling *rollingCache
	// stats are the aggregate counters, one atomic per counter
	// (statsCounters); the per-object rows are guarded by their object's
	// mu (objCounters). Both are folded from the op stream by emit
	// (event.go).
	stats statsCounters
	// flushMu guards the eager-eviction double buffer: the completion
	// times of the last two H2D transfers issued by flushRunEager
	// (lastFlush newest). waitH2DSlot stalls only until prevFlush, so one
	// transfer stays in flight while the next is prepared.
	//
	//adsm:lock flushMu 41 nowait
	flushMu              sync.Mutex
	lastFlush, prevFlush sim.Time
	// evictMu guards evictQ, the deferred cross-object eviction victim runs;
	// evictN mirrors len(evictQ), stored under evictMu, so a drain of an
	// empty queue takes no lock.
	//
	//adsm:lock evictMu 42 nowait
	evictMu sync.Mutex
	evictQ  []evictRun
	evictN  atomic.Int64
	// callMu serialises kernel invocation and synchronisation and guards
	// invokeKernel and launched.
	//
	//adsm:lock callMu 10
	callMu sync.Mutex
	// tracer is the optional tracer of events and spans; nil disables both.
	tracer *trace.Tracer
	// mets are the cached histogram and gauge handles for the hot paths.
	mets *metricSet
	// id is the process-wide construction sequence number.
	id int
	// retired is a ring of the final introspection rows of the last
	// maxRetiredObjects freed objects, retiredN how many were ever retired;
	// both guarded by introMu because HTTP handlers read them from other
	// goroutines.
	//
	//adsm:lock introMu 46 nowait
	introMu  sync.Mutex
	retired  [maxRetiredObjects]ObjectSnapshot
	retiredN int
	// invokeKernel is the kernel currently being dispatched; the release
	// sweep uses it to honour §3.3 object-to-kernel bindings. launched are
	// the distinct kernels invoked since the last Sync, whose objects that
	// Sync acquires. Both guarded by callMu.
	invokeKernel string
	launched     []string
	// lost latches once the accelerator is declared lost (fault escalation,
	// recover.go); objects then degrade to host-resident semantics.
	lost atomic.Bool
	// ring is the op ring emit records into (record.go), a capture while
	// capturing is set. objSeq numbers objects so recorded streams
	// identify them stably across record and replay.
	ring      atomic.Pointer[oplog.Ring]
	capturing atomic.Bool
	objSeq    atomic.Uint32
}

// NewManager wires a manager to the host MMU, the host virtual address
// space, and one accelerator. It installs itself as the MMU fault handler.
func NewManager(cfg Config, clock *sim.Clock, bd *sim.Breakdown,
	mmu *hostmmu.MMU, va *mem.VASpace, dev *accel.Device) (*Manager, error) {

	if uint(cfg.Protocol) >= uint(len(policies)) {
		return nil, fmt.Errorf("core: unknown protocol %v", cfg.Protocol)
	}
	if policies[cfg.Protocol].blocked && cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("core: %v requires a block size", cfg.Protocol)
	}
	// Blocks are protected page by page, so a block size, even one the
	// configured protocol ignores, must be page-granular.
	if cfg.BlockSize != 0 && cfg.BlockSize%mmu.PageSize() != 0 {
		return nil, fmt.Errorf("core: block size %d is not a multiple of the %d-byte page",
			cfg.BlockSize, mmu.PageSize())
	}
	m := &Manager{
		cfg:     cfg,
		clock:   clock,
		bd:      bd,
		mmu:     mmu,
		va:      va,
		dev:     dev,
		rolling: newRollingCache(cfg.FixedRolling, cfg.FixedRolling > 0),
	}
	m.mets = newMetricSet(metrics.Default(), cfg.Protocol, &m.stats)
	// A flight dump replays under this manager's configuration, recorder
	// or not.
	m.ring.Store(oplog.NewFlightRing(oplog.DefaultFlightCapacity, m.OpLogHeader()))
	mmu.SetHandler(m.handleFault)
	registerManager(m)
	return m, nil
}

// Protocol returns the active protocol kind.
func (m *Manager) Protocol() ProtocolKind { return m.cfg.Protocol }

// Device returns the managed accelerator.
func (m *Manager) Device() *accel.Device { return m.dev }

// Stats returns a copy of the activity counters.
func (m *Manager) Stats() Stats { return m.stats.load() }

// RollingCapacity returns the current rolling size (0 for other protocols).
func (m *Manager) RollingCapacity() int { return m.rolling.Capacity() }

// RollingLen returns the number of blocks currently in the rolling cache.
func (m *Manager) RollingLen() int { return m.rolling.Len() }

// Objects returns the number of live shared objects.
func (m *Manager) Objects() int {
	return int(m.reg.nobjects.Load())
}

// IndexRebuilds returns how many clones of their object span sets the
// registry's shards have published since construction, summed over shards
// (the shards hold no other set). Exposed for the rebuild-storm regression
// test: under churn the count must track the Allocs and Frees, not the
// (much larger) number of lookups that follow them.
func (m *Manager) IndexRebuilds() int64 { return m.reg.rebuilds() }

// SetSpanTracer installs (or removes, with nil) the tracer. It captures
// both the instantaneous protocol events and the timed spans around them.
func (m *Manager) SetSpanTracer(t *trace.Tracer) {
	if t != nil {
		t.SetRenderer(renderOp)
	}
	m.tracer = t
}

// SpanTracer returns the installed tracer, or nil.
func (m *Manager) SpanTracer() *trace.Tracer { return m.tracer }

// beginSpan opens a span at the current virtual time if span tracing is
// enabled; the zero SpanID means disabled.
func (m *Manager) beginSpan(name, note string) trace.SpanID {
	if m.tracer == nil {
		return 0
	}
	return m.tracer.Begin(name, note, m.clock.Now())
}

// endSpan closes a span opened by beginSpan.
func (m *Manager) endSpan(id trace.SpanID) {
	if m.tracer != nil && id != 0 {
		m.tracer.End(id, m.clock.Now())
	}
}

// charge advances the CPU clock by d and books it under cat.
func (m *Manager) charge(cat sim.Category, d sim.Time) {
	m.clock.Advance(d)
	if m.bd != nil {
		m.bd.Add(cat, d)
	}
}

// book records already-elapsed clock time under cat (for wrapped calls that
// advanced the clock themselves).
func (m *Manager) book(cat sim.Category, d sim.Time) {
	if d < 0 {
		d = 0
	}
	if m.bd != nil {
		m.bd.Add(cat, d)
	}
}

// pageAlignedSize rounds size up to whole MMU pages.
func (m *Manager) pageAlignedSize(size int64) int64 {
	ps := m.mmu.PageSize()
	return (size + ps - 1) / ps * ps
}

// kernelSet builds the §3.3 kernel-binding set, nil for "all kernels".
func kernelSet(kernels []string) map[string]bool {
	if len(kernels) == 0 {
		return nil
	}
	ks := make(map[string]bool, len(kernels))
	for _, k := range kernels {
		ks[k] = true
	}
	return ks
}

// AllocSpec parameterises one shared-object allocation: its size, its
// declared access mode (mode.go), whether the host mapping must avoid the
// §4.2 shared-address trick (Safe), and its §3.3 kernel binding.
type AllocSpec struct {
	Size int64
	// Mode declares the object's access pattern; the zero value is
	// ModeReadWrite, the paper's default full-coherence behaviour.
	Mode AccessMode
	// Safe places the host mapping wherever the OS finds room (adsmSafeAlloc):
	// the pointer is host-only and kernel arguments need Translate.
	Safe bool
	// Kernels is the §3.3 binding: invocations of other kernels neither
	// flush nor invalidate the object. Empty means every kernel.
	Kernels []string
}

// AllocObject allocates one shared object as described by spec. It is the
// single allocation body; Alloc is a thin wrapper over it. Accelerator
// memory comes first, then the host mapping, whose placement (§4.2) is the
// only branch; if the host side fails the accelerator allocation is given
// back.
func (m *Manager) AllocObject(spec AllocSpec) (mem.Addr, error) {
	if !spec.Mode.Valid() {
		return 0, fmt.Errorf("core: unknown access mode %v", spec.Mode)
	}
	if err := m.checkDeviceLost("alloc"); err != nil {
		return 0, err
	}
	m.charge(sim.CatMalloc, m.cfg.MallocCost)

	t0 := m.clock.Now()
	devAddr, err := m.dev.Malloc(spec.Size)
	m.book(sim.CatCudaMalloc, m.clock.Now()-t0)
	if err != nil {
		return 0, err
	}

	o := &Object{devAddr: devAddr, size: spec.Size, safe: spec.Safe,
		kernels: kernelSet(spec.Kernels), mode: spec.Mode}
	aligned := m.pageAlignedSize(spec.Size)
	switch {
	case spec.Safe:
		// adsmSafeAlloc: the OS places the host mapping, so the pointer is
		// host-only and kernel arguments go through Translate.
		o.mapping, err = m.va.MapAnywhere(aligned)
	case m.dev.HasVirtualMemory():
		// With a device MMU there is never an address conflict: the host
		// picks any free virtual range and the device maps the same range
		// onto its physical allocation (§4.2's "good solution").
		if o.mapping, err = m.va.MapAnywhere(aligned); err == nil {
			o.vm, o.vmPhys, o.devAddr = true, devAddr, o.mapping.Addr
			if err = m.dev.MapVA(o.mapping.Addr, devAddr, spec.Size); err != nil {
				err = errors.Join(err, m.va.Unmap(o.mapping.Addr))
			}
		}
	default:
		// adsmAlloc: mirror the accelerator's address range on the host, so
		// a single pointer serves both processors.
		o.mapping, err = m.va.MapFixed(devAddr, aligned)
		if errors.Is(err, mem.ErrAddrInUse) {
			err = fmt.Errorf("%w: %v", ErrAddrConflict, err)
		}
	}
	if err != nil {
		if freeErr := m.dev.Free(devAddr); freeErr != nil {
			return 0, fmt.Errorf("core: %w (and device free failed: %v)", err, freeErr)
		}
		return 0, err
	}
	o.addr = o.mapping.Addr
	return m.finishAlloc(o)
}

// Alloc implements adsmAlloc: it allocates accelerator memory and mirrors
// the same address range in host memory, so a single pointer serves both
// processors. If the range is already taken on the host it returns
// ErrAddrConflict and the caller should allocate with AllocSpec.Safe.
func (m *Manager) Alloc(size int64) (mem.Addr, error) {
	return m.AllocObject(AllocSpec{Size: size})
}

// finishAlloc initialises o's blocks, protection and protocol state, then
// publishes it to the registry. Publication is last: a concurrent lookup
// either misses the object entirely or sees it fully initialised.
func (m *Manager) finishAlloc(o *Object) (mem.Addr, error) {
	o.seq = m.objSeq.Add(1)
	o.pol = policies[m.cfg.Protocol]
	blockSize := int64(0) // one block spanning the object
	if o.pol.blocked {
		blockSize = m.cfg.BlockSize
	}
	o.makeBlocks(blockSize, m.mmu.PageSize())

	m.mmu.Map(o.addr, m.pageAlignedSize(o.size), hostmmu.ProtReadWrite)
	// A detecting object starts ReadOnly, so its first CPU write faults. A
	// host-authoritative one starts Dirty behind read/write pages and
	// crosses the bus both ways at every call/return boundary (Section 5.1
	// measures slowdowns of up to 65x).
	to := StateReadOnly
	if o.pol.hostAuth {
		to = StateDirty
	}
	m.setState(o.blocks[0], len(o.blocks), to)
	m.rolling.onAlloc()

	if err := m.reg.insertObject(o); err != nil {
		return 0, err
	}

	var flags uint8
	if o.safe {
		flags = oplog.FlagSafe
	}
	m.emit(oplog.Op{Kind: oplog.OpAlloc, Flags: flags, Addr: o.addr, Size: o.size,
		Arg: int64(o.mode), Note: oplog.NoteID(kernelNote(o.kernels))}, o)
	return o.addr, nil
}

// kernelNote serialises an object's §3.3 kernel binding for the op stream:
// the kernel names sorted and comma-joined ("" for an unbound object).
func kernelNote(kernels map[string]bool) string {
	if len(kernels) == 0 {
		return ""
	}
	names := make([]string, 0, len(kernels))
	for k := range kernels {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// Free implements adsmFree.
func (m *Manager) Free(addr mem.Addr) error {
	m.charge(sim.CatFree, m.cfg.FreeCost)
	o := m.objectAt(addr)
	if o == nil || o.addr != addr {
		return fmt.Errorf("%w: free of %#x", ErrNotShared, uint64(addr))
	}
	// Mark the object dead under its lock: accesses already holding o.mu
	// finish first; later ones observe dead and fail with ErrNotShared.
	o.mu.Lock()
	if o.dead {
		o.mu.Unlock()
		return fmt.Errorf("%w: free of %#x", ErrNotShared, uint64(addr))
	}
	o.dead = true
	o.mu.Unlock()

	m.rolling.forget(o)
	// Retire the introspection row first, so /adsm/objects never shows o as
	// neither live nor freed.
	m.introRetire(o)
	m.reg.removeObject(o)
	m.mmu.Unmap(o.addr, m.pageAlignedSize(o.size))
	if err := m.va.Unmap(o.addr); err != nil {
		return err
	}
	t0 := m.clock.Now()
	phys := o.devAddr
	if o.vm {
		phys = o.vmPhys
		if _, err := m.dev.UnmapVA(o.addr); err != nil {
			return err
		}
	}
	err := m.dev.Free(phys)
	m.book(sim.CatCudaFree, m.clock.Now()-t0)
	m.emit(oplog.Op{Kind: oplog.OpFree, Addr: o.addr, Size: o.size}, o)
	return err
}

// objectAt returns the shared object containing addr, or nil: a lock-free
// binary search of the owning shard's published object spans, which an
// Alloc or Free re-clones if lookups are using them, and otherwise the
// first lookup after it (IndexRebuilds counts both).
//
//adsm:noalloc
func (m *Manager) objectAt(addr mem.Addr) *Object {
	return m.reg.objectAt(addr)
}

// blockAt resolves the fault handler's block lookup: the block containing
// addr (nil if unshared) and the probe count charged as §5.2 search cost.
//
//adsm:noalloc
func (m *Manager) blockAt(addr mem.Addr) (*Block, int64) {
	return m.reg.blockAt(addr)
}

// IsShared reports whether addr falls inside a live shared object.
func (m *Manager) IsShared(addr mem.Addr) bool { return m.objectAt(addr) != nil }

// ObjectAt exposes the object lookup for the public API layer.
func (m *Manager) ObjectAt(addr mem.Addr) *Object { return m.objectAt(addr) }

// Translate implements adsmSafe: it maps a host pointer into the
// accelerator address of the same byte, for passing to kernels.
func (m *Manager) Translate(addr mem.Addr) (mem.Addr, error) {
	o := m.objectAt(addr)
	if o == nil {
		return 0, fmt.Errorf("%w: translate %#x", ErrNotShared, uint64(addr))
	}
	return o.devAddr + (addr - o.addr), nil
}

// objectSet is a kernel invocation's write annotation: the objects the
// kernel may modify. A nil set means "any object" — the conservative
// default when no annotation is available (§4.3).
type objectSet map[*Object]bool

// contains reports whether o may be written under this annotation.
func (s objectSet) contains(o *Object) bool {
	if s == nil {
		return true
	}
	return s[o]
}

// CallHints carries the per-call coherence declarations of one kernel
// launch: the §4.3 write-set annotation plus the per-call read-only hint.
// The zero value is an unhinted, unannotated call — the conservative
// default.
type CallHints struct {
	// Writes lists any address inside each object the kernel may write
	// (§4.3). Meaningful only when Annotated is true.
	Writes []mem.Addr
	// Annotated distinguishes an empty write set ("the kernel writes
	// nothing") from no annotation at all ("the kernel may write anything").
	Annotated bool
	// ReadOnly lists objects the kernel only reads during this call: they
	// are never invalidated by the release sweep, even without a write-set
	// annotation. It does not imply an annotation for other objects, and
	// an object may not be in both Writes and ReadOnly.
	ReadOnly []mem.Addr
}

// invokeHints is a CallHints resolved against the registry for one release
// sweep. The maps are read-only once built.
type invokeHints struct {
	writes objectSet // nil = "any object" (unannotated)
	ro     objectSet // never invalidated this call
}

// written reports whether o must be invalidated by the release sweep.
func (ih *invokeHints) written(o *Object) bool {
	if o.mode == ModeReadOnly || ih.ro[o] {
		return false
	}
	return ih.writes.contains(o)
}

// resolveHints validates h against the registry and the objects' declared
// access modes, and builds the release sweep's object sets. An object both
// in the write set and hinted read-only is a contradiction, rejected like a
// ReadOnly-mode object in the write set.
func (m *Manager) resolveHints(h CallHints) (invokeHints, error) {
	var ih invokeHints
	if h.Annotated {
		ih.writes = make(objectSet, len(h.Writes))
		for _, addr := range h.Writes {
			o := m.objectAt(addr)
			if o == nil {
				return ih, fmt.Errorf("%w: write annotation %#x", ErrNotShared, uint64(addr))
			}
			if o.mode == ModeReadOnly {
				return ih, fmt.Errorf("%w: read-only object %#x in kernel write set",
					ErrModeViolation, uint64(o.addr))
			}
			ih.writes[o] = true
		}
	}
	if len(h.ReadOnly) > 0 {
		ih.ro = make(objectSet, len(h.ReadOnly))
		for _, addr := range h.ReadOnly {
			o := m.objectAt(addr)
			if o == nil {
				return ih, fmt.Errorf("%w: read-only hint %#x", ErrNotShared, uint64(addr))
			}
			if ih.writes[o] {
				return ih, fmt.Errorf("%w: object %#x both in kernel write set and hinted read-only",
					ErrModeViolation, uint64(o.addr))
			}
			ih.ro[o] = true
		}
	}
	return ih, nil
}

// InvokeAnnotated is InvokeHinted with only a kernel write-set annotation
// (§4.3: "programmers can annotate each kernel call with the objects that
// the kernel will write to, then the objects can remain in read-only or
// dirty state at accelerator kernel invocation"). Objects not listed keep their
// host-valid state across the call, so reading them afterwards costs no
// transfer. writes lists any address inside each written object.
func (m *Manager) InvokeAnnotated(kernel string, writes []mem.Addr, args ...uint64) error {
	return m.invoke(kernel, CallHints{Writes: writes, Annotated: true}, args)
}

// InvokeHinted implements adsmCall: it runs the protocol's release actions
// (flushing dirty data to the accelerator, invalidating host copies) and
// dispatches the kernel, ordered behind in-flight transfers by the
// device's queue. h carries the per-call hints: the write-set annotation
// and the read-only hints; the zero CallHints is an unannotated call.
func (m *Manager) InvokeHinted(kernel string, h CallHints, args ...uint64) error {
	return m.invoke(kernel, h, args)
}

// invoke dispatches a kernel. The hint addresses are recorded in argument
// order — the resolved objectSet's map order is not reproducible.
func (m *Manager) invoke(kernel string, h CallHints, args []uint64) error {
	m.callMu.Lock()
	defer m.callMu.Unlock()
	// Settle deferred cross-object evictions before the release sweep so the
	// rolling cache and block states are consistent at the call boundary.
	m.drainEvictions()
	if err := m.checkDeviceLost("invoke"); err != nil {
		return err
	}
	ih, err := m.resolveHints(h)
	if err != nil {
		return err
	}
	sp := m.beginSpan("invoke", kernel)
	defer m.endSpan(sp)
	var invokeFlags uint8
	if h.Annotated {
		invokeFlags = oplog.FlagAnnotated
		for _, addr := range h.Writes {
			m.emit(oplog.Op{Kind: oplog.OpAnnotate, Addr: addr}, m.objectAt(addr))
		}
	}
	for _, addr := range h.ReadOnly {
		m.emit(oplog.Op{Kind: oplog.OpAnnotate, Flags: oplog.FlagHintRead, Addr: addr}, m.objectAt(addr))
	}
	for _, a := range args {
		m.emit(oplog.Op{Kind: oplog.OpArg, Arg: int64(a)}, nil)
	}
	m.emit(oplog.Op{Kind: oplog.OpInvoke, Flags: invokeFlags, Note: oplog.NoteID(kernel)}, nil)
	m.invokeKernel = kernel
	if !slices.Contains(m.launched, kernel) {
		m.launched = append(m.launched, kernel)
	}
	if err := m.releaseAll(&ih); err != nil {
		return err
	}
	// Record how much flushed data is still in flight: the kernel cannot
	// start until the H2D queue drains, so this backlog is transfer time
	// attributable to the host-to-device direction (Figure 11).
	if drain := m.dev.H2DFreeAt() - m.clock.Now(); drain > 0 {
		m.stats.H2DDrain.Add(int64(drain))
	}
	m.charge(sim.CatLaunch, m.cfg.LaunchCost)
	err = m.retry(sim.CatLaunch, "launch "+kernel, func() error {
		t0 := m.clock.Now()
		_, lerr := m.dev.Launch(kernel, args...)
		m.book(sim.CatCudaLaunch, m.clock.Now()-t0)
		return lerr
	})
	if err != nil && errors.Is(err, fault.ErrInjected) {
		// Retries exhausted or the launch fault was permanent: the device
		// is gone. Objects degrade lazily at the next entry point.
		err = m.escalateDevice("launch "+kernel, err)
	}
	return err
}

// Sync implements adsmSync: it stalls until the accelerator finishes, then
// runs the protocol's acquire actions.
func (m *Manager) Sync() error {
	m.callMu.Lock()
	defer m.callMu.Unlock()
	if err := m.checkDeviceLost("sync"); err != nil {
		return err
	}
	sp := m.beginSpan("sync", "")
	defer m.endSpan(sp)
	m.emit(oplog.Op{Kind: oplog.OpSync}, nil)
	stall := m.dev.Synchronize()
	m.book(sim.CatGPU, stall)
	return m.acquireAll()
}

// HandleFault resolves a protection fault against this manager's objects.
// Multi-accelerator front ends install a dispatcher as the MMU handler and
// route each fault to the owning manager through this method.
func (m *Manager) HandleFault(f hostmmu.Fault) error { return m.handleFault(f) }

// handleFault is installed as the MMU fault handler: it locates the block
// (charging the tree-search cost the paper analyses in §5.2) and lets the
// protocol resolve the Figure 6 transition.
//
// Faults arrive synchronously from host-access paths that already hold the
// faulted object's mu, so block-state transitions here are serialised per
// object while faults on different objects run in parallel.
//
//adsm:noalloc
func (m *Manager) handleFault(f hostmmu.Fault) error {
	sp := m.beginSpan("fault", f.Access.String())
	t0 := m.clock.Now()
	defer func() {
		m.mets.faultNs.Observe(int64(m.clock.Now() - t0))
		m.endSpan(sp)
	}()
	b, visits := m.blockAt(f.Addr)
	m.mets.searchDepth.Observe(visits)
	search := sim.Time(visits) * m.cfg.TreeNodeCost
	m.stats.SearchTime.Add(int64(search))
	m.charge(sim.CatSignal, search)
	op := oplog.Op{Kind: oplog.OpFault, Addr: f.Addr}
	if f.Access == hostmmu.AccessWrite {
		op.Flags = oplog.FlagWrite
	}
	if b == nil {
		m.emit(op, nil)
		return errUnsharedFault(f.Addr)
	}
	op.Addr, op.Size, op.Arg = b.addr, b.size, int64(b.state)
	m.emit(op, b.obj)
	if err := m.checkModeFault(b, f.Access); err != nil {
		return err
	}
	return m.protoFault(b, f.Access)
}

// errUnsharedFault formats the unshared-address error off the fault hot
// path (handleFault is //adsm:noalloc; this can only fire on a stray
// access, never on the measured path).
//
//adsm:cold
func errUnsharedFault(addr mem.Addr) error {
	return fmt.Errorf("%w: fault at %#x", ErrNotShared, uint64(addr))
}

// enter is the one prologue of the host-side entry points: it checks
// [op.Addr, op.Addr+op.Size) against the shared object containing op.Addr,
// takes that object's lock, rejects an object freed since the lookup and a
// host write to a sealed ReadOnly object, and emits op. On success the
// caller holds o.mu and must finish with leave. Owed pages are pulled by
// the access itself once the MMU check has resolved its faults: a fault's
// fetch may owe the very pages a pull here would have copied.
func (m *Manager) enter(op oplog.Op) (*Object, error) {
	if op.Size < 0 {
		return nil, fmt.Errorf("core: negative access size %d", op.Size)
	}
	o := m.objectAt(op.Addr)
	if o == nil {
		return nil, errDead(op.Addr)
	}
	if end := o.addr + mem.Addr(o.size); op.Addr+mem.Addr(op.Size) > end {
		return nil, fmt.Errorf("%w: [%#x,+%d) beyond object end %#x",
			ErrSpansObjects, uint64(op.Addr), op.Size, uint64(end))
	}
	o.mu.Lock()
	if o.dead {
		o.mu.Unlock()
		return nil, errDead(op.Addr)
	}
	if o.pol.sealed {
		if _, write := op.HostAccess(); write {
			o.mu.Unlock()
			return nil, errModeViolation(ModeReadOnly, hostmmu.AccessWrite, op.Addr)
		}
	}
	m.emit(op, o)
	return o, nil
}

// pull copies the owed pages of [addr, addr+n) from the device into the
// host copy, one ReadBytes per maximal run of owed pages, and clears their
// bits. The fetch that owed them has already paid for the transfer, so
// the copy costs no virtual time. A closed device's memory is gone: the
// access then fails with an error matching fault.ErrDeviceLost. The caller
// holds o.mu.
//
//adsm:noalloc
func (m *Manager) pull(o *Object, addr mem.Addr, n int64) error {
	if n <= 0 || o.owedPages == 0 {
		return nil
	}
	lo, hi := o.pages(addr, n)
	for p := lo; p <= hi; {
		q, owed := o.owedRun(p, hi)
		if owed {
			if m.dev.Closed() {
				return errPullLost(addr)
			}
			off, end := int64(p)<<o.pageShift, min(int64(q)<<o.pageShift, o.size)
			m.dev.ReadBytes(o.devAddr+mem.Addr(off), o.mapping.Space.Bytes(o.addr+mem.Addr(off), end-off))
			o.copies.pulled += end - off
			o.disown(p, q-1)
		}
		p = q
	}
	return nil
}

// pullForWrite readies [addr, addr+n), n > 0, inside block b, for a write.
// On a detecting object that is not degraded, a write of a page or more
// pulls all of b's owed pages: such a writer streams through the block
// (Parboil's tpacf fills its random set 4 KiB at a time), and copying the
// block at its first write, as the fetch did before pages were owed,
// keeps the writes after it on cache-warm host pages instead of putting a
// cache miss on each of them. Otherwise the write pulls the owed pages it
// touches. It fails like pull. The caller holds o.mu.
//
//adsm:noalloc
func (m *Manager) pullForWrite(o *Object, b *Block, addr mem.Addr, n int64) error {
	if n >= int64(1)<<o.pageShift && o.detects() && !o.degraded.Load() {
		return m.pull(o, b.addr, b.size)
	}
	return m.pull(o, addr, n)
}

// pullArmed copies the owed pages of [addr, addr+n) into host memory
// before a write-back of that run on a device with an injector armed: a
// corrupt attempt scribbles the run's device range and its retry re-sends
// the whole host copy, owed pages included. The pages were owed before
// the arming, since a fetch on an armed device lands its bytes. The caller
// holds o.mu.
//
//adsm:noalloc
func (m *Manager) pullArmed(o *Object, addr mem.Addr, n int64) {
	if m.dev.Armed() {
		_ = m.pull(o, addr, n) // fails only on a closed device, whose write-back fails too
	}
}

// readHost copies the host copy of [addr, addr+len(dst)) into dst, once
// the access may read it: owed pages straight from the device, the rest
// from host memory. Owed pages stay owed: the read copies their bytes
// once, into dst, where a pull would copy them twice. It fails like pull
// once the device is closed. The caller holds o.mu.
func (m *Manager) readHost(o *Object, addr mem.Addr, dst []byte) error {
	if o.owedPages == 0 || len(dst) == 0 {
		o.mapping.Space.Read(addr, dst)
		return nil
	}
	off, end := int64(addr-o.addr), int64(addr-o.addr)+int64(len(dst))
	lo, hi := o.pages(addr, int64(len(dst)))
	for p := lo; p <= hi; {
		q, owed := o.owedRun(p, hi)
		next := min(int64(q)<<o.pageShift, end)
		seg := dst[:next-off]
		if !owed {
			o.mapping.Space.Read(o.addr+mem.Addr(off), seg)
		} else if m.dev.Closed() {
			return errPullLost(addr)
		} else {
			m.dev.ReadBytes(o.devAddr+mem.Addr(off), seg)
			o.copies.readThrough += int64(len(seg))
		}
		dst, off, p = dst[len(seg):], next, q
	}
	return nil
}

// errPullLost formats the error of a host access that needs bytes only a
// closed device held.
//
//adsm:cold
func errPullLost(addr mem.Addr) error {
	return fmt.Errorf("core: host access at %#x needs device bytes: %w", uint64(addr), fault.ErrDeviceLost)
}

// leave is the one epilogue: it releases the lock enter took, then settles
// the cross-object evictions the access deferred (and, once the device is
// lost, degrades whatever is not degraded yet). The per-access entry points
// (HostRead, HostWrite, HostBytes) call it explicitly rather than deferring
// it: a defer costs a fifth of a non-faulting access.
func (m *Manager) leave(o *Object) {
	o.mu.Unlock()
	m.drainEvictions()
}

// HostRead performs a CPU read of [addr, addr+len(dst)) through the MMU,
// faulting and fetching as the protocol dictates, then copies the bytes.
func (m *Manager) HostRead(addr mem.Addr, dst []byte) error {
	o, err := m.enter(oplog.Op{Kind: oplog.OpHostRead, Addr: addr, Size: int64(len(dst))})
	if err != nil {
		return err
	}
	err = m.mmu.CheckRead(addr, int64(len(dst)))
	if err == nil {
		err = m.readHost(o, addr, dst)
	}
	m.leave(o)
	return err
}

// HostWrite performs a CPU write of src to [addr, addr+len(src)) through
// the MMU. Like real store instructions, it proceeds block by block:
// each block's write fault is resolved (which may evict an earlier, already
// written block) before that block's bytes land, never after. Resolving all
// faults up front would let a rolling-cache eviction flush a block the CPU
// has not written yet and then miss the write entirely.
func (m *Manager) HostWrite(addr mem.Addr, src []byte) error {
	o, err := m.enter(oplog.Op{Kind: oplog.OpHostWrite, Addr: addr, Size: int64(len(src))})
	if err != nil {
		return err
	}
	err = m.hostWriteLocked(o, addr, src)
	m.leave(o)
	return err
}

// hostWriteLocked is HostWrite's block-by-block walk: each block's write
// fault is resolved, then the owed pages the write needs are copied in
// (pullForWrite), then the bytes land. The caller holds o.mu.
func (m *Manager) hostWriteLocked(o *Object, addr mem.Addr, src []byte) error {
	for len(src) > 0 {
		b, n := o.chunk(addr, int64(len(src)))
		if err := m.mmu.CheckWrite(addr, n); err != nil {
			return err
		}
		if o.owedPages != 0 {
			if err := m.pullForWrite(o, b, addr, n); err != nil {
				return err
			}
		}
		o.mapping.Space.Write(addr, src[:n])
		o.markWritten(addr, n)
		addr += mem.Addr(n)
		src = src[n:]
	}
	return nil
}

// HostBytes returns the live host backing slice for [addr, addr+n) after
// performing the MMU access check for the given access kind. The public
// API's typed views use it for bulk element reads. For writes it is only
// safe within a single coherence block: resolving a multi-block write walk
// up front can evict an earlier block before the caller writes it — use
// HostWrite for multi-block stores. The returned slice is live memory: the
// caller must not use it concurrently with other accessors of the object,
// and it is invalid after the object's Free, when its bytes may back a
// later object.
func (m *Manager) HostBytes(addr mem.Addr, n int64, access hostmmu.Access) ([]byte, error) {
	op := oplog.Op{Kind: oplog.OpHostAccess, Addr: addr, Size: n}
	if access == hostmmu.AccessWrite {
		op.Flags = oplog.FlagWrite
	}
	o, err := m.enter(op)
	if err != nil {
		return nil, err
	}
	if access == hostmmu.AccessWrite {
		err = m.mmu.CheckWrite(addr, n)
	} else {
		err = m.mmu.CheckRead(addr, n)
	}
	if err == nil && o.owedPages != 0 {
		// The slice exposes host memory: its owed pages come home first.
		err = m.pull(o, addr, n)
	}
	var bytes []byte
	if err == nil {
		if access == hostmmu.AccessWrite {
			o.markWritten(addr, n)
		}
		bytes = o.mapping.Space.Bytes(addr, n)
	}
	m.leave(o)
	return bytes, err
}

// --- transfer helpers used by the protocols ---

// runSize returns the byte length of the run of n consecutive blocks
// starting at first (contiguous by construction: consecutive indices of one
// object are adjacent in both host and device address space).
func runSize(first *Block, n int) int64 {
	last := first.obj.blocks[first.index+n-1]
	return int64(last.addr-first.addr) + last.size
}

// waitH2DSlot stalls until the eager-eviction path may issue its next H2D
// transfer, booking the wait (the eager-transfer overlap cost plotted in
// Figure 11). The eviction path is double-buffered: one transfer may still
// be in flight — the wait target is the completion of the transfer before
// last — so eviction DMA overlaps the fault service that triggered it
// instead of serialising behind it.
func (m *Manager) waitH2DSlot() {
	m.flushMu.Lock()
	target := m.prevFlush
	m.flushMu.Unlock()
	wait := target - m.clock.Now()
	if wait <= 0 {
		return
	}
	m.clock.Advance(wait)
	m.stats.H2DWait.Add(int64(wait))
	m.book(sim.CatCopy, wait)
}

// noteFlushIssued records the completion time of an eager flush just
// handed to the H2D engine, shifting the double buffer.
func (m *Manager) noteFlushIssued(done sim.Time) {
	m.flushMu.Lock()
	if done >= m.lastFlush {
		m.prevFlush, m.lastFlush = m.lastFlush, done
	} else if done > m.prevFlush {
		m.prevFlush = done
	}
	m.flushMu.Unlock()
}

// flushRunEager is the one asynchronous DMA: it transfers n consecutive
// dirty blocks to the accelerator with a single transfer, without blocking
// on the transfer itself but waiting first for a slot in the H2D double
// buffer. Coalesced rolling evictions come through here with n > 1.
// Injected faults are retried (inline, no closure — this runs on the fault
// path); an unrecoverable failure escalates (device lost, the object
// degraded) and is returned. The caller holds first.obj.mu.
//
//adsm:noalloc
func (m *Manager) flushRunEager(first *Block, n int) error {
	sp := m.beginSpan("flush", "eager")
	defer m.endSpan(sp)
	o := first.obj
	size := runSize(first, n)
	m.pullArmed(o, first.addr, size)
	mask := o.writeBackMask(first, n)
	for attempt := 0; ; attempt++ {
		m.waitH2DSlot()
		done, terr := m.dev.TryMemcpyH2DAsync(first.devAddr(), o.mapping.Space.Bytes(first.addr, size), mask)
		if terr == nil {
			o.copies.sent += mask.Sent(size)
			m.noteFlushIssued(done.At)
			break
		}
		// The failed attempt may have scribbled the device range.
		mask = accel.PageMask{}
		again, ferr := m.retryStep(sim.CatCopy, "flush", attempt, terr)
		if !again {
			return m.escalateLocked(o, "flush", ferr)
		}
	}
	o.clean(first, n)
	m.emit(oplog.Op{Kind: oplog.OpFlush, Addr: first.addr, Size: size}, o)
	return nil
}

// dmaSync is the one stalling DMA: it moves buf between host memory and
// devAddr — host to device for an OpFlush, of which only the pages mask
// selects are copied, device to host for an OpFetch, which lands nothing
// when buf is nil (the op's Size bytes are owed, settle) — and stalls the CPU
// until the transfer completes, booking the stall as copy time. Injected
// faults are retried inline with a full copy (a corrupt attempt scribbles
// its destination, so the retry must overwrite all of it); op is emitted
// once the transfer succeeds. An unrecoverable failure is returned for the
// caller to escalate. The caller holds o.mu.
//
//adsm:noalloc
func (m *Manager) dmaSync(o *Object, op oplog.Op, devAddr mem.Addr, buf []byte, mask accel.PageMask, what string) error {
	for attempt := 0; ; attempt++ {
		t0 := m.clock.Now()
		var done sim.Completion
		var terr error
		wait := &m.stats.H2DWait
		if op.Kind == oplog.OpFetch {
			done, terr = m.dev.TryMemcpyD2HAsync(buf, devAddr, op.Size)
			wait = &m.stats.D2HWait
		} else {
			done, terr = m.dev.TryMemcpyH2DAsync(devAddr, buf, mask)
			if terr == nil {
				o.copies.sent += mask.Sent(int64(len(buf)))
			}
			mask = accel.PageMask{} // a retry copies everything
		}
		done.Wait(m.clock)
		d := m.clock.Now() - t0
		wait.Add(int64(d))
		m.book(sim.CatCopy, d)
		if terr == nil {
			m.emit(op, o)
			return nil
		}
		again, ferr := m.retryStep(sim.CatCopy, what, attempt, terr)
		if !again {
			return ferr
		}
	}
}

// flushBlockSync transfers a dirty block to the accelerator and stalls the
// CPU until it completes (batch-update's conservative behaviour). An
// unrecoverable failure escalates like flushRunEager. The caller holds
// b.obj.mu.
func (m *Manager) flushBlockSync(b *Block) error {
	sp := m.beginSpan("flush", "sync")
	defer m.endSpan(sp)
	op := oplog.Op{Kind: oplog.OpFlush, Flags: oplog.FlagSync, Addr: b.addr, Size: b.size}
	m.pullArmed(b.obj, b.addr, b.size)
	if err := m.dmaSync(b.obj, op, b.devAddr(), b.hostBytes(), b.obj.writeBackMask(b, 1), "flush"); err != nil {
		return m.escalateLocked(b.obj, "flush", err)
	}
	b.obj.clean(b, 1)
	return nil
}

// fetchRunSync transfers n consecutive Invalid blocks from the accelerator
// to host memory with a single DMA, stalling the CPU (the faulting access
// needs the data now): one block for a plain fault, the whole run for the
// span-fault service that mirrors eviction coalescing on the fetch side.
// One stall, one OpFetch of the run's total bytes, carrying the block count
// in Arg when it is a batch (n > 1). With owe the transfer is made and
// charged alike but lands no byte: the run's pages are owed to the host
// (Object.owed). An unrecoverable failure escalates like flushRunEager.
// The caller holds first.obj.mu and, for a batch, has verified every block
// of the run is StateInvalid.
//
//adsm:noalloc
func (m *Manager) fetchRunSync(first *Block, n int, owe bool) error {
	o := first.obj
	op := oplog.Op{Kind: oplog.OpFetch, Addr: first.addr, Size: runSize(first, n)}
	note := ""
	if n > 1 {
		op.Arg, note = int64(n), "run"
	}
	sp := m.beginSpan("fetch", note)
	defer m.endSpan(sp)
	var buf []byte
	if !owe {
		buf = o.mapping.Space.Bytes(first.addr, op.Size)
	}
	if err := m.dmaSync(o, op, first.devAddr(), buf, accel.PageMask{}, "fetch"); err != nil {
		return m.escalateLocked(o, "fetch", err)
	}
	o.settle(first, n, owe)
	if owe {
		o.owedArms = m.dev.Arms()
	} else {
		o.copies.landed += op.Size
	}
	return nil
}

// --- cross-object eviction machinery ---

// evictRun is a batch of consecutive rolling-cache victims: n blocks of one
// object starting at first, contiguous in host and device address space.
// Representing runs as (first, n) keeps the eviction path allocation-free —
// the member blocks are first.obj.blocks[first.index : first.index+n].
type evictRun struct {
	first *Block
	n     int
}

// flushEvicted writes a run of evicted rolling-cache victims back to the
// accelerator and downgrades them to ReadOnly, one DMA transfer and one
// mprotect per maximal still-dirty stretch. Blocks no longer Dirty (a
// racing drain flushed them) or re-queued since eviction (checkQueued; the
// cache owns them again) split the run and are skipped. On an unrecoverable
// fault the flush has already escalated (victims' object degraded, blocks
// left Dirty and writable) and the error is returned. The caller must hold
// first.obj.mu.
func (m *Manager) flushEvicted(first *Block, n int, checkQueued bool) error {
	o := first.obj
	end := first.index + n
	for i := first.index; i < end; {
		for i < end && !m.flushable(o.blocks[i], checkQueued) {
			i++
		}
		j := i
		for j < end && m.flushable(o.blocks[j], checkQueued) {
			j++
		}
		if j == i {
			break
		}
		sub := o.blocks[i]
		if err := m.flushRunEager(sub, j-i); err != nil {
			return err
		}
		m.setState(sub, j-i, StateReadOnly)
		i = j
	}
	return nil
}

// flushable reports whether an evicted block still needs its write-back.
func (m *Manager) flushable(b *Block, checkQueued bool) bool {
	return b.state == StateDirty && !(checkQueued && m.rolling.isQueued(b))
}

// deferEviction queues a victim run whose object lock the current goroutine
// does not hold. The entry points drain the queue once their own object
// lock is released, so no goroutine ever holds two Object.mu at once.
//
//adsm:noalloc
func (m *Manager) deferEviction(first *Block, n int) {
	m.evictMu.Lock()
	m.evictQ = append(m.evictQ, evictRun{first, n}) //adsm:allow noalloc: cross-object victims are rare, and the drainer takes the queue wholesale (evictQ = nil), so the occasional regrow buys lock-free iteration
	m.evictN.Store(int64(len(m.evictQ)))
	m.evictMu.Unlock()
}

// drainEvictions flushes every deferred cross-object victim run. Called by
// host entry points after releasing their object lock, and by invoke before
// the release sweep. A victim that was re-dirtied and re-queued since
// deferral is left alone (the cache owns it again); one flushed by a racing
// drain is skipped via the state check. Both cases are handled per block
// inside flushEvicted, splitting the run as needed. A goroutine that
// deferred a run drains it itself after its own unlock, so reading an
// empty queue without the lock strands nothing.
func (m *Manager) drainEvictions() {
	if m.lost.Load() {
		// The device is gone: deferred flushes are moot, and any object not
		// yet degraded switches to host-resident mode here, the sweep every
		// entry point passes through.
		m.degradeAll()
	}
	if m.evictN.Load() == 0 {
		return
	}
	m.evictMu.Lock()
	runs := m.evictQ
	m.evictQ = nil
	m.evictN.Store(0)
	m.evictMu.Unlock()
	for _, r := range runs {
		o := r.first.obj
		o.mu.Lock()
		if !o.dead && !o.degraded.Load() {
			// An unrecoverable flush has already escalated (the object is
			// degraded and keeps its data host-side); nothing further to do.
			_ = m.flushEvicted(r.first, r.n, true)
		}
		o.mu.Unlock()
	}
}

// setProtRun changes the protection of n consecutive blocks with a single
// mprotect call (one charge for the whole run). Only setState calls it.
//
//adsm:noalloc
func (m *Manager) setProtRun(first *Block, n int, prot hostmmu.Prot) {
	m.charge(sim.CatSignal, m.cfg.MprotectCost)
	if err := m.mmu.Mprotect(first.addr, runSize(first, n), prot); err != nil {
		// Blocks are always mapped while their object lives; failure here
		// is a manager bug, not a recoverable condition.
		mprotectFailed(err)
	}
}

// mprotectFailed raises the mprotect-failure panic; the formatting lives
// off the //adsm:noalloc protection-change path.
//
//adsm:cold
func mprotectFailed(err error) {
	panic(fmt.Sprintf("core: mprotect of live block run failed: %v", err))
}

// eachObject visits live objects in address order. The registry is
// snapshotted shard by shard so callbacks run holding no shard lock.
func (m *Manager) eachObject(f func(o *Object)) {
	for _, o := range m.reg.snapshot() {
		f(o)
	}
}

// eachInvokeObject visits the objects a release or acquire sweep for the
// given kernels affects: those bound to any of them, or unbound (used by
// all kernels). Each callback runs under the object's lock; objects freed
// since the snapshot are skipped.
func (m *Manager) eachInvokeObject(kernels []string, f func(o *Object)) {
	m.eachObject(func(o *Object) {
		o.mu.Lock()
		if !o.dead && slices.ContainsFunc(kernels, o.UsedBy) {
			f(o)
		}
		o.mu.Unlock()
	})
}
