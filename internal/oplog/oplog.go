// Package oplog is the runtime's op-stream layer: a compact record of
// every operation the ADSM manager mediates (allocations, host accesses,
// kernel calls, faults, transfers, evictions, retries, device losses),
// each stamped with virtual time and attributed to a shared object.
//
// The paper's central observation — the runtime sees *every* host access
// and kernel launch — means this stream is a complete description of a
// run: replaying the input ops against a fresh manager reproduces the
// coherence behaviour exactly (internal/core.Replay). Three consumers are
// built on the same Op type:
//
//   - a capture recorder (Ring installed via core.(*Manager).EnableRecorder)
//     that turns any application run into a reusable benchmark and chaos
//     corpus, serialised by Encode/Decode;
//   - the always-on flight recorder (Flight), a fixed-size mutex-guarded ring
//     of the most recent ops that is dumped to a file — ops, metrics
//     snapshot and config — when something goes wrong (flight.go);
//   - the introspection endpoint's /adsm/oplog view.
//
// The record path is allocation-free (//adsm:noalloc, enforced by adsmvet
// and AllocsPerRun tests): an Op carries no pointers and no strings. Cold
// paths attach context by interning strings once (NoteID) and recording
// the 32-bit id.
package oplog

import (
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Kind classifies an op. Input ops are the API-level operations a replayer
// re-executes; derived ops are the protocol's reactions (faults, DMA,
// evictions), recorded for diagnosis and skipped on replay.
type Kind uint8

// Op kinds. The order is part of the encoding (format v1): new kinds must
// be appended, never inserted.
const (
	opInvalid Kind = iota

	// Input ops: the recorded application behaviour.
	OpAlloc      // AllocObject (FlagSafe for a Safe allocation); Note = kernel binding; Arg = access mode
	OpFree       // Free
	OpHostRead   // HostRead of Size bytes at Addr
	OpHostWrite  // HostWrite of Size bytes at Addr
	OpHostAccess // HostBytes view access (FlagWrite distinguishes)
	OpBulkRead   // interposed memcpy out of shared memory
	OpBulkWrite  // interposed memcpy into shared memory
	OpBulkSet    // interposed memset; Arg = fill byte
	OpIORead     // peer-DMA read (PeerRead)
	OpIOWrite    // peer-DMA write (PeerWrite)
	OpAnnotate   // one write-set entry of the next OpInvoke
	OpArg        // one kernel argument of the next OpInvoke; Arg = value
	OpInvoke     // kernel launch; Note = kernel name
	OpSync       // synchronisation barrier

	// Derived ops: the protocol's reactions, for the black box.
	OpFault      // page fault; Arg = block state at fault time
	OpFetch      // D2H block transfer on the fault path
	OpFlush      // H2D transfer (FlagSync when the CPU stalled on it)
	OpEvict      // rolling-cache eviction run; Arg = blocks in the run
	OpRetry      // transient-fault retry (FlagGiveup when the budget died)
	OpDegrade    // object degraded to host-resident semantics
	OpDeviceLost // accelerator declared lost

	// Format v1 appends only, so later input kinds land after the derived
	// block; Input() enumerates them explicitly.

	// OpModeMigrate is reserved: it recorded an online protocol migration
	// of an object allocated in the Auto access mode (OpAlloc Arg 3),
	// which no longer exists. Retired names both and core's replayer
	// refuses them.
	OpModeMigrate

	// OpRegionPtr, OpRegionAcquire and OpRegionRelease are reserved: they
	// recorded region scopes, which no longer exist. The kinds keep their
	// numbers so OpTransition keeps its value and old streams decode;
	// Retired names them and core's replayer refuses them.
	OpRegionPtr
	OpRegionAcquire
	OpRegionRelease

	OpTransition // derived, tracer only: block state change; Arg = from<<8|to

	nKinds
)

// Input reports whether k is an input op a replayer re-executes: the
// fourteen contiguous kinds of format v1.
func (k Kind) Input() bool { return k >= OpAlloc && k <= OpSync }

// Valid reports whether k is a known op kind.
func (k Kind) Valid() bool { return k > opInvalid && k < nKinds }

var kindNames = [nKinds]string{
	OpAlloc: "alloc", OpFree: "free",
	OpHostRead: "host-read", OpHostWrite: "host-write", OpHostAccess: "host-access",
	OpBulkRead: "bulk-read", OpBulkWrite: "bulk-write", OpBulkSet: "bulk-set",
	OpIORead: "io-read", OpIOWrite: "io-write",
	OpAnnotate: "annotate", OpArg: "arg", OpInvoke: "invoke", OpSync: "sync",
	OpFault: "fault", OpFetch: "fetch", OpFlush: "flush", OpEvict: "evict",
	OpRetry: "retry", OpDegrade: "degrade", OpDeviceLost: "device-lost",
	OpModeMigrate: "mode-migrate", OpRegionPtr: "region-ptr",
	OpRegionAcquire: "region-acquire", OpRegionRelease: "region-release",
	OpTransition: "state",
}

func (k Kind) String() string {
	if k.Valid() {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Op flags.
const (
	// FlagWrite marks a write access (OpHostAccess, OpFault).
	FlagWrite uint8 = 1 << iota
	// FlagSafe marks a Safe allocation, adsmSafeAlloc (OpAlloc).
	FlagSafe
	// FlagSync marks a flush the CPU stalled on (OpFlush).
	FlagSync
	// FlagAnnotated marks an invoke that carried a §4.3 write-set
	// annotation, even an empty one (OpInvoke).
	FlagAnnotated
	// FlagGiveup marks the retry that exhausted the budget (OpRetry).
	FlagGiveup
	// FlagHintRead marks an OpAnnotate entry that is a per-call read-only
	// hint (the kernel only reads the object) rather than a write-set entry.
	FlagHintRead
	// FlagHintWriteOnly is reserved: it marked an OpAnnotate entry that was
	// a per-call write-only hint, which no longer exists. Retired names it
	// and core's replayer refuses it.
	FlagHintWriteOnly
)

// Retired names the reserved kind, flag or access mode op carries, or
// returns "" if it carries none. A stream holding one was recorded by a
// runtime with region scopes, write-only hints or the Auto access mode,
// and no replay of it can be faithful.
func (op Op) Retired() string {
	switch op.Kind {
	case OpModeMigrate, OpRegionPtr, OpRegionAcquire, OpRegionRelease:
		return op.Kind.String()
	case OpAnnotate:
		if op.Flags&FlagHintWriteOnly != 0 {
			return "write-only hint"
		}
	case OpAlloc:
		if op.Arg == 3 { // the access mode Auto
			return "auto-mode alloc"
		}
	}
	return ""
}

// Op is one recorded operation. It is a plain value — no pointers, no
// strings — so recording it into a Ring is one slot copy and encoding it
// never reaches back into the runtime.
type Op struct {
	// At is the virtual time of the op.
	At sim.Time
	// Kind classifies it; Flags carry per-kind modifiers.
	Kind  Kind
	Flags uint8
	// Mgr is the recording manager's process-wide id, distinguishing
	// interleaved managers in the shared flight ring.
	Mgr uint16
	// Obj is the per-manager sequence number of the object involved
	// (0 = none): stable across record and replay, unlike addresses.
	Obj uint32
	// Addr and Size locate the accessed range in the recorded run's
	// address space (a replayer remaps via Obj).
	Addr mem.Addr
	Size int64
	// Arg carries per-kind detail: block state for faults, run length for
	// evictions, the fill byte for memset, the argument value for OpArg,
	// the attempt number for retries.
	Arg int64
	// Note is an interned-string id (NoteID) for cold-path context:
	// kernel names, retry sites, kernel bindings. 0 = none.
	Note uint32
	// Lane is the recording goroutine's host-thread lane (sim.Clock lane
	// id; 0 = the shared single-threaded timeline). It attributes ops to
	// concurrent host threads, which the race detector
	// (internal/racecheck) models as vector-clock components. Format v2;
	// v1 streams decode with Lane 0.
	Lane uint32
}

// HostAccess reports whether op is a host-side access to shared memory —
// an op a host entry point of the runtime records — and whether that
// access writes it.
func (op Op) HostAccess() (access, write bool) {
	switch op.Kind {
	case OpHostRead, OpBulkRead, OpIORead:
		return true, false
	case OpHostWrite, OpBulkWrite, OpBulkSet, OpIOWrite:
		return true, true
	case OpHostAccess:
		return true, op.Flags&FlagWrite != 0
	}
	return false, false
}

func (op Op) String() string {
	s := fmt.Sprintf("%12v  %-11s", op.At, op.Kind)
	if op.Lane != 0 {
		s += fmt.Sprintf(" lane%d", op.Lane)
	}
	if op.Obj != 0 {
		s += fmt.Sprintf(" obj%d", op.Obj)
	}
	if op.Size > 0 {
		s += fmt.Sprintf(" [%#x,+%d)", uint64(op.Addr), op.Size)
	}
	if op.Arg != 0 {
		s += fmt.Sprintf(" arg=%d", op.Arg)
	}
	if op.Note != 0 {
		s += " " + NoteString(op.Note)
	}
	return s
}

// Header describes the configuration a stream was recorded under — enough
// for a replayer to rebuild an equivalent manager.
type Header struct {
	// Protocol is the core.ProtocolKind the run used.
	Protocol int32 `json:"protocol"`
	// BlockSize and FixedRolling mirror core.Config; RollingDelta is the
	// constant core.RollingDelta.
	BlockSize    int64 `json:"block_size"`
	RollingDelta int32 `json:"rolling_delta"`
	FixedRolling int32 `json:"fixed_rolling"`
	// MaxRetries mirrors core.Config.MaxRetries (chaos replays care).
	MaxRetries int32 `json:"max_retries"`
	// Flags carry Hdr* bits.
	Flags uint32 `json:"flags"`
	// Label names the run (benchmark/variant, or the dump reason).
	Label string `json:"label,omitempty"`
}

// Header flags.
const (
	// HdrFlight marks a flight-recorder dump: a bounded window that may
	// start mid-run, so replayers must use lenient mode.
	HdrFlight uint32 = 1 << iota
	// HdrNoCoalesce is reserved: it marked streams recorded with eviction
	// coalescing off, a knob that no longer exists. The bit keeps its place
	// so the flags after it keep their values and old streams decode.
	HdrNoCoalesce
	// HdrRaceDetect is reserved: it marked streams recorded with an online
	// race detector, which no longer exists (races are found offline, by
	// racecheck.Analyze over the stream). Replayers ignore it.
	HdrRaceDetect
	// HdrNoFaultBatch mirrors core.Config.DisableFaultBatching: span-fault
	// batching changes fault and transfer counts, so a replayer must run
	// with the same setting for counter conformance.
	HdrNoFaultBatch
)

// Log is a complete recorded op stream: the configuration header, the
// ops, and (for capture logs) the recorded run's final counter totals the
// replay conformance checks compare against. Flight dumps carry a metrics
// registry snapshot instead.
type Log struct {
	Header Header
	Ops    []Op
	// Totals are the recorded manager's final counters (core's
	// Stats.Counters()), for replay-determinism checks.
	Totals map[string]int64
	// Metrics is an optional metrics-registry JSON snapshot (flight dumps).
	Metrics []byte
}

// --- interned note strings ---

// maxNotes bounds the process-wide intern table; beyond it NoteID degrades
// to 0 ("no note") instead of growing without bound.
const maxNotes = 1 << 16

var notes = struct {
	// The table is append-only: ids are never reused, so NoteString can
	// read strs under the read lock.
	//
	//adsm:lock oplogNotesMu 60 nowait
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string
}{
	ids:  make(map[string]uint32),
	strs: []string{""}, // id 0 = no note
}

// NoteID interns s and returns its stable id (0 for the empty string).
// Interning takes a lock and may allocate: call it from cold paths only
// and record the returned id.
func NoteID(s string) uint32 {
	if s == "" {
		return 0
	}
	notes.mu.RLock()
	id, ok := notes.ids[s]
	notes.mu.RUnlock()
	if ok {
		return id
	}
	notes.mu.Lock()
	defer notes.mu.Unlock()
	if id, ok := notes.ids[s]; ok {
		return id
	}
	if len(notes.strs) >= maxNotes {
		return 0
	}
	id = uint32(len(notes.strs))
	notes.strs = append(notes.strs, s)
	notes.ids[s] = id
	return id
}

// NoteString resolves an interned id ("" for 0 or unknown ids).
func NoteString(id uint32) string {
	notes.mu.RLock()
	defer notes.mu.RUnlock()
	if int(id) < len(notes.strs) {
		return notes.strs[id]
	}
	return ""
}
