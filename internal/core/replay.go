// Deterministic op-stream replay: re-executing a recorded log
// (internal/oplog) against a fresh Manager.
//
// The paper's runtime mediates every host access and kernel launch, so the
// input ops of a recorded stream are a complete driver for the coherence
// machinery: replaying them reproduces the same faults, transfers and
// evictions — the deterministic counters of Stats.Counters() — regardless
// of the data values or the kernels' actual computation. The conformance
// tests (internal/figures, internal/fault) rely on this to turn any
// recorded application run into a reusable benchmark and chaos corpus.

package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/accel"
	"repro/internal/hostmmu"
	"repro/internal/mem"
	"repro/internal/oplog"
)

// ReplayOptions configures Replay.
type ReplayOptions struct {
	// Lenient tolerates the imperfections of flight-recorder dumps: a
	// bounded window that may open mid-run, referencing objects whose
	// allocation scrolled out of the ring. Ops against unknown objects are
	// skipped and errors are counted instead of aborting, so a black box
	// can always be driven as far as it goes. Strict mode (the default)
	// aborts on the first divergence — right for complete capture logs.
	Lenient bool
	// MaxOps bounds the number of input ops re-executed (0 = all).
	MaxOps int
}

// ReplayReport summarises one replay.
type ReplayReport struct {
	// Input counts the input ops considered; Replayed the ones
	// re-executed; Skipped the ones dropped (unknown object, lenient).
	Input, Replayed, Skipped int
	// Errors counts tolerated op failures (lenient mode only).
	Errors int
	// Objects is the number of distinct objects allocated during replay.
	Objects int
}

// replayer carries the state threaded through one replay.
type replayer struct {
	m   *Manager
	opt ReplayOptions
	rep ReplayReport
	// objBase/objAddr map a recorded object seq to its recorded base
	// address and its live replayed base address: recorded addresses are
	// rebased object-relative, because a fresh manager's allocator will not
	// reproduce them (Safe allocations in particular).
	objBase map[uint32]mem.Addr
	objAddr map[uint32]mem.Addr
	// scratch is the reused host-access buffer, grown to the largest access.
	scratch []byte
	// pendingWrites/pendingRO/pendingArgs accumulate OpAnnotate (by hint
	// flag) and OpArg runs until the OpInvoke they precede.
	pendingWrites []mem.Addr
	pendingRO     []mem.Addr
	pendingArgs   []uint64
}

// Replay re-executes the input ops of l against m, a freshly constructed
// manager whose configuration should match l.Header (gmac.ReplayConfig
// builds one). Kernels named by the stream that are not registered on m's
// device are stub-registered with a zero-cost body — the coherence
// counters do not depend on what kernels compute, only on when they run.
// A stream holding a retired op (oplog.Op.Retired) fails, lenient or not:
// skipping it would replay a different program.
func (m *Manager) Replay(l *oplog.Log, opt ReplayOptions) (ReplayReport, error) {
	r := &replayer{
		m:       m,
		opt:     opt,
		objBase: make(map[uint32]mem.Addr),
		objAddr: make(map[uint32]mem.Addr),
	}
	r.registerStubs(l)
	for i, op := range l.Ops {
		if name := op.Retired(); name != "" {
			return r.rep, fmt.Errorf("core: replay op %d: retired %s op; this runtime cannot replay it", i, name)
		}
		if !op.Kind.Input() {
			continue
		}
		r.rep.Input++
		if opt.MaxOps > 0 && r.rep.Replayed >= opt.MaxOps {
			break
		}
		if err := r.step(op); err != nil {
			if !opt.Lenient {
				return r.rep, fmt.Errorf("core: replay op %d (%v): %w", r.rep.Input-1, op.Kind, err)
			}
			r.rep.Errors++
		}
	}
	r.rep.Objects = len(r.objAddr)
	return r.rep, nil
}

// registerStubs registers a zero-cost stub for every kernel the stream
// invokes that m's device does not already provide, so capture logs replay
// against real kernel implementations when available (full-fidelity tests)
// and against stubs otherwise (corpus replays, flight dumps).
func (r *replayer) registerStubs(l *oplog.Log) {
	seen := map[string]bool{}
	for _, op := range l.Ops {
		var names string
		switch op.Kind {
		case oplog.OpInvoke:
			names = oplog.NoteString(op.Note)
		case oplog.OpAlloc:
			// §3.3 kernel bindings name kernels too; an unbound stub must
			// exist or the binding check at invoke time would not reproduce.
			names = oplog.NoteString(op.Note)
		default:
			continue
		}
		for _, name := range strings.Split(names, ",") {
			if name == "" || seen[name] {
				continue
			}
			seen[name] = true
			if _, ok := r.m.dev.Lookup(name); ok {
				continue
			}
			r.m.dev.Register(&accel.Kernel{
				Name: name,
				Run:  func(*mem.Space, []uint64) {},
				Cost: accel.FixedCost(0, 0),
			})
		}
	}
}

// addr rebases a recorded address into the live object's range.
func (r *replayer) addr(op oplog.Op) (mem.Addr, bool) {
	base, ok := r.objAddr[op.Obj]
	if !ok {
		return 0, false
	}
	return base + (op.Addr - r.objBase[op.Obj]), true
}

// buf returns the reused scratch buffer at n bytes. Replayed writes carry
// a deterministic pattern so replays of replays also agree byte for byte.
func (r *replayer) buf(n int64, fill bool) []byte {
	if int64(len(r.scratch)) < n {
		r.scratch = make([]byte, n)
	}
	b := r.scratch[:n]
	if fill {
		for i := range b {
			b[i] = byte(i)
		}
	}
	return b
}

func (r *replayer) step(op oplog.Op) error {
	switch op.Kind {
	case oplog.OpAlloc:
		return r.alloc(op)
	case oplog.OpAnnotate:
		addr, ok := r.addr(op)
		if !ok {
			return r.unknown(op)
		}
		if op.Flags&oplog.FlagHintRead != 0 {
			r.pendingRO = append(r.pendingRO, addr)
		} else {
			r.pendingWrites = append(r.pendingWrites, addr)
		}
		r.rep.Replayed++
		return nil
	case oplog.OpArg:
		r.pendingArgs = append(r.pendingArgs, uint64(op.Arg))
		r.rep.Replayed++
		return nil
	case oplog.OpInvoke:
		return r.invoke(op)
	case oplog.OpSync:
		r.rep.Replayed++
		return r.m.Sync()
	}

	// Everything else addresses one object.
	addr, ok := r.addr(op)
	if !ok {
		return r.unknown(op)
	}
	r.rep.Replayed++
	switch op.Kind {
	case oplog.OpFree:
		delete(r.objAddr, op.Obj)
		delete(r.objBase, op.Obj)
		return r.m.Free(addr)
	case oplog.OpHostRead:
		return r.m.HostRead(addr, r.buf(op.Size, false))
	case oplog.OpHostWrite:
		return r.m.HostWrite(addr, r.buf(op.Size, true))
	case oplog.OpHostAccess:
		access := hostmmu.AccessRead
		if op.Flags&oplog.FlagWrite != 0 {
			access = hostmmu.AccessWrite
		}
		_, err := r.m.HostBytes(addr, op.Size, access)
		return err
	case oplog.OpBulkRead:
		return r.m.BulkRead(addr, r.buf(op.Size, false))
	case oplog.OpBulkWrite:
		return r.m.BulkWrite(addr, r.buf(op.Size, true))
	case oplog.OpBulkSet:
		return r.m.BulkSet(addr, byte(op.Arg), op.Size)
	case oplog.OpIORead:
		return r.m.PeerRead(addr, r.buf(op.Size, false))
	case oplog.OpIOWrite:
		return r.m.PeerWrite(addr, r.buf(op.Size, true))
	}
	r.rep.Replayed--
	return fmt.Errorf("unsupported input op %v", op.Kind)
}

func (r *replayer) alloc(op oplog.Op) error {
	var kernels []string
	if note := oplog.NoteString(op.Note); note != "" {
		kernels = strings.Split(note, ",")
	}
	addr, err := r.m.AllocObject(AllocSpec{
		Size:    op.Size,
		Mode:    AccessMode(op.Arg),
		Safe:    op.Flags&oplog.FlagSafe != 0,
		Kernels: kernels,
	})
	if err != nil {
		return err
	}
	r.objBase[op.Obj] = op.Addr
	r.objAddr[op.Obj] = addr
	r.rep.Replayed++
	return nil
}

func (r *replayer) invoke(op oplog.Op) error {
	h := CallHints{
		Writes:    r.pendingWrites,
		Annotated: op.Flags&oplog.FlagAnnotated != 0,
		ReadOnly:  r.pendingRO,
	}
	args := r.pendingArgs
	r.pendingWrites, r.pendingRO, r.pendingArgs = nil, nil, nil
	r.rep.Replayed++
	kernel := oplog.NoteString(op.Note)
	return r.m.InvokeHinted(kernel, h, args...)
}

// unknown handles an op against an object the replay never saw allocated:
// fatal for capture logs, skipped for flight windows.
func (r *replayer) unknown(op oplog.Op) error {
	if r.opt.Lenient {
		r.rep.Skipped++
		return nil
	}
	return fmt.Errorf("op references object %d with no recorded allocation", op.Obj)
}

// CompareTotals diffs two Counters() maps and reports every divergence —
// the replay-determinism conformance check.
func CompareTotals(recorded, replayed map[string]int64) error {
	names := make([]string, 0, len(recorded))
	for k := range recorded {
		names = append(names, k)
	}
	for k := range replayed {
		if _, ok := recorded[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	var diffs []string
	for _, k := range names {
		if recorded[k] != replayed[k] {
			diffs = append(diffs, fmt.Sprintf("%s: recorded %d, replayed %d",
				k, recorded[k], replayed[k]))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("core: replay diverged on %d counters:\n  %s",
			len(diffs), strings.Join(diffs, "\n  "))
	}
	return nil
}
