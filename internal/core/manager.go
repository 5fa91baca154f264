package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/accel"
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
