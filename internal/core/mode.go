package core

import (
	"errors"
	"fmt"

	"repro/internal/hostmmu"
	"repro/internal/mem"
	"repro/internal/oplog"
)

// AccessMode declares how an object is accessed over its lifetime, in the
// spirit of access-mode declarations subsuming per-object coherence
// decisions (Henrio/Kessler/Li): instead of one global protocol, every
// object carries a mode that selects its protocol and elides coherence
// work the declaration proves unnecessary.
//
//adsm:statecase
type AccessMode uint8

// Access modes. The zero value is ModeReadWrite — the paper's default
// behaviour — so existing allocations are unaffected.
const (
	// ModeReadWrite is the default: full coherence under the manager's
	// configured protocol, exactly the paper's Figure 6 behaviour.
	ModeReadWrite AccessMode = iota
	// ModeReadOnly declares the object read-only after initialisation: the
	// host writes it once, then kernels only read it. At the first kernel
	// release the object is flushed and sealed — replicated once — and
	// never invalidated again, so it generates zero fault-service DMA for
	// the rest of the run. Host writes after the seal fail with
	// ErrModeViolation, and listing the object in a kernel write set is an
	// error.
	ModeReadOnly
	// ModeWriteOnly declares that the host only writes the object (an
	// input buffer kernels consume): a host write fault on an Invalid
	// block skips the device fetch — Invalid data is never DMA'd
	// host-ward — because the host promises to overwrite the block before
	// it is next flushed. Host reads of Invalid data fail with
	// ErrModeViolation.
	ModeWriteOnly
	// ModeAuto starts on the manager's configured protocol and watches the
	// per-object fault/eviction counters, migrating the object between the
	// protocols online (with hysteresis) at acquire boundaries. Each
	// migration is recorded in the op stream so replays stay
	// deterministic.
	ModeAuto
)

func (m AccessMode) String() string {
	switch m {
	case ModeReadWrite:
		return "read-write"
	case ModeReadOnly:
		return "read-only"
	case ModeWriteOnly:
		return "write-only"
	case ModeAuto:
		return "auto"
	default:
		return fmt.Sprintf("AccessMode(%d)", uint8(m))
	}
}

// Valid reports whether m is a known access mode.
func (m AccessMode) Valid() bool { return m <= ModeAuto }

// ErrModeViolation is returned when an access contradicts an object's
// declared access mode: a host write to a sealed read-only object, or a
// host read of Invalid data in a write-only object.
var ErrModeViolation = errors.New("core: access violates the object's declared access mode")

// errModeViolation formats the violation off the //adsm:noalloc fault path.
//
//adsm:cold
func errModeViolation(mode AccessMode, access hostmmu.Access, addr mem.Addr) error {
	return fmt.Errorf("%w: %v %v at %#x", ErrModeViolation, mode, access, uint64(addr))
}

// Auto-migration policy parameters. The decision function is deliberately a
// pure function of the per-object replay-deterministic counters, so a
// replayed op stream makes identical migration decisions (docs/access-modes.md).
const (
	// autoWindow is the number of acquire boundaries between migration
	// decisions for one object.
	autoWindow = 4
	// autoHysteresis is how many consecutive windows must vote for the
	// same non-current protocol before the object migrates.
	autoHysteresis = 2
	// autoStreamRate is the write-fault rate (faults per acquire boundary,
	// averaged over the window) above which the access pattern counts as a
	// streaming write and votes for rolling-update.
	autoStreamRate = 4
)

// checkModeFault vets a protection fault against the faulted object's
// declared access mode before the protocol resolves it: a read of Invalid
// data in a WriteOnly object would observe the fetch the mode elides. A
// host write to a sealed ReadOnly object never gets this far; enter
// rejects it. The caller holds b.obj.mu.
//
//adsm:noalloc
func (m *Manager) checkModeFault(b *Block, access hostmmu.Access) error {
	if b.obj.mode == ModeWriteOnly && access != hostmmu.AccessWrite && b.state == StateInvalid {
		return errModeViolation(ModeWriteOnly, access, b.addr)
	}
	return nil
}

// autoVote computes the migration vote for one Auto object from the
// counter deltas of the closed window. Batch-update is signal-free (no
// protection, no faults), so it is never a migration target: objects that
// start there probe out to lazy-update, and the observable protocols
// migrate between lazy and rolling on the fault/eviction signal.
func autoVote(o *Object, dFaults, dWrites, dEvicts int64) ProtocolKind {
	switch {
	case !o.pol.detects:
		// No fault signal without detection: probe out to lazy-update, which
		// observes the access pattern at the cost of protection faults.
		return LazyUpdate
	case dEvicts > 0:
		// The write working set already exceeds the rolling cache:
		// rolling-update's eager eviction overlap is paying off.
		return RollingUpdate
	case dWrites >= autoStreamRate*autoWindow:
		// Streaming writes: enough dirty backlog per call window that
		// eager block flushes overlap DMA with CPU work.
		return RollingUpdate
	case dFaults == 0:
		// No host activity: no signal, keep the current protocol.
		return o.pol.kind
	default:
		// Light host traffic: lazy-update's object-granularity detection
		// is the cheapest fit.
		return LazyUpdate
	}
}

// autoStep runs one acquire-boundary decision for an Auto object. The
// caller holds o.mu. Counter snapshots and the vote streak live on the
// object, so the decision sequence is a deterministic function of the
// replayed op order.
func (m *Manager) autoStep(o *Object) error {
	if o.degraded.Load() {
		return nil
	}
	o.autoSyncs++
	if o.autoSyncs%autoWindow != 0 {
		return nil
	}
	w := o.counters.writeFaults
	f := o.counters.readFaults + w
	e := o.counters.evictions.Load()
	vote := autoVote(o, f-o.autoFaults, w-o.autoWrites, e-o.autoEvicts)
	o.autoFaults, o.autoWrites, o.autoEvicts = f, w, e
	if vote == o.pol.kind {
		o.autoStreak = 0
		return nil
	}
	if vote == o.autoVote {
		o.autoStreak++
	} else {
		o.autoVote, o.autoStreak = vote, 1
	}
	if o.autoStreak < autoHysteresis {
		return nil
	}
	o.autoStreak = 0
	return m.migrate(o, vote)
}

// migrate moves o to lazy- or rolling-update at an acquire boundary
// (batch-update is never a target, see autoVote) by swapping its policy.
// The caller holds o.mu. The object is first normalised to the clean
// cross-protocol state — rolling-cache membership dropped, dirty blocks
// flushed — then resumes under the new policy all ReadOnly behind
// read-only pages, its Invalid blocks still faulting on first touch as
// usual. A failed flush has already escalated (object degraded, data
// host-resident) and aborts the migration.
func (m *Manager) migrate(o *Object, to ProtocolKind) error {
	from := o.pol.kind
	if from == to || policies[to].hostAuth {
		return nil
	}
	m.rolling.forget(o)
	var invalid []*Block
	for _, b := range o.blocks {
		switch b.state {
		case StateDirty:
			if err := m.flushRunEager(b, 1); err != nil {
				return err
			}
		case StateInvalid:
			invalid = append(invalid, b)
		case StateReadOnly:
		}
	}
	// The new policy governs the transitions below: an object leaving
	// batch-update starts detecting accesses here.
	o.pol = policies[to]
	m.setState(o.blocks[0], len(o.blocks), StateReadOnly)
	for _, b := range invalid {
		m.setState(b, 1, StateInvalid)
	}
	m.emit(oplog.Op{Kind: oplog.OpModeMigrate, Addr: o.addr, Size: o.size,
		Arg: int64(from)<<8 | int64(to)}, o)
	return nil
}
