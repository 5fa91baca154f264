package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/oplog"
	"repro/internal/sim"
)

// This file is the kernel boundary: adsmCall and adsmSync. The release
// sweep (releaseAll, before a kernel launch) and the acquire sweep
// (acquireAll, after kernel completion) honour the declared access modes:
// read-only objects seal instead of travelling, write-only objects skip
// fetches of data the host will overwrite, and per-call hints elide
// flushes and invalidations the kernel's declaration proves unnecessary.

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
			o := m.reg.objectAt(addr)
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
			o := m.reg.objectAt(addr)
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
	return m.InvokeHinted(kernel, CallHints{Writes: writes, Annotated: true}, args...)
}

// InvokeHinted implements adsmCall: it runs the protocol's release actions
// (flushing dirty data to the accelerator, invalidating host copies) and
// dispatches the kernel, ordered behind in-flight transfers by the
// device's queue. h carries the per-call hints: the write-set annotation
// and the read-only hints; the zero CallHints is an unannotated call. The
// hint addresses are recorded in argument order — the resolved objectSet's
// map order is not reproducible.
func (m *Manager) InvokeHinted(kernel string, h CallHints, args ...uint64) error {
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
			m.emit(oplog.Op{Kind: oplog.OpAnnotate, Addr: addr}, m.reg.objectAt(addr))
		}
	}
	for _, addr := range h.ReadOnly {
		m.emit(oplog.Op{Kind: oplog.OpAnnotate, Flags: oplog.FlagHintRead, Addr: addr}, m.reg.objectAt(addr))
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
	for attempt := 0; ; attempt++ {
		t0 := m.clock.Now()
		_, err = m.dev.Launch(kernel, args...)
		m.book(sim.CatCudaLaunch, m.clock.Now()-t0)
		if err == nil {
			return nil
		}
		again, ferr := m.retryStep(sim.CatLaunch, "launch "+kernel, attempt, err)
		if !again {
			err = ferr
			break
		}
	}
	if errors.Is(err, fault.ErrInjected) {
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

// releaseAll runs the release actions of a kernel invocation: the rolling
// cache is drained first (it is empty unless some object rolls), then every
// object in the call's scope is released under its own policy and access
// mode. The caller holds callMu.
func (m *Manager) releaseAll(ih *invokeHints) error {
	if err := m.releaseRollingCache(ih); err != nil {
		return err
	}
	var err error
	m.eachInvokeObject([]string{m.invokeKernel}, func(o *Object) {
		if err != nil || o.degraded.Load() {
			return
		}
		err = m.releaseObject(o, ih)
	})
	return err
}

// releaseRollingCache flushes the rolling cache (the remaining dirty blocks
// of rolling objects). Out-of-scope dirty blocks (objects bound to
// other kernels, §3.3) are flushed too — flushing early is always safe and
// keeps the cache bookkeeping simple — but they are not invalidated by the
// release sweep.
func (m *Manager) releaseRollingCache(ih *invokeHints) error {
	defer m.mets.rollingOcc.Set(0)
	var err error
	drained := m.rolling.drain()
	for i := 0; i < len(drained); {
		// Group queue-adjacent, address-contiguous blocks of one object into
		// a run: streaming writers fill the cache in address order, so the
		// invocation flush collapses into a few large DMA transfers.
		j := i + 1
		for j < len(drained) && drained[j].obj == drained[j-1].obj &&
			drained[j].index == drained[j-1].index+1 {
			j++
		}
		first := drained[i]
		o := first.obj
		o.mu.Lock()
		if !o.dead && !o.degraded.Load() {
			// flushEvicted skips the stretches a racing drain already
			// flushed, writes back the dirty ones run-wise, and downgrades
			// them to ReadOnly so the next CPU write faults again. Objects
			// the sweep below invalidates get their object-wide ProtNone
			// afterwards, superseding the per-run downgrade.
			if e := m.flushEvicted(first, j-i, false); e != nil {
				// Escalated: o is degraded and keeps its data host-side.
				// Finish the walk so other objects' blocks are not left
				// dirty-but-unqueued, then fail the invocation.
				err = e
			}
		}
		o.mu.Unlock()
		i = j
	}
	return err
}

// releaseObject performs one object's release actions, honouring its access
// mode before its protocol: read-only objects seal (replicate once) instead
// of travelling, and everything else follows its protocol's release edge.
// The caller holds o.mu; o is live and not degraded.
func (m *Manager) releaseObject(o *Object, ih *invokeHints) error {
	if o.mode == ModeReadOnly {
		return m.sealReadOnly(o)
	}
	// Flush every dirty block. A host-authoritative object transfers
	// synchronously and stays Dirty: with no access detection it cannot know
	// whether the CPU will modify the object and must conservatively re-send
	// every call. A detecting object flushes eagerly (a rolling one's cache
	// drain has already flushed the queued blocks) and, both copies now
	// matching, downgrades the block to catch the next CPU write.
	written := ih.written(o)
	for _, b := range o.blocks {
		if b.state != StateDirty {
			continue
		}
		if o.pol.hostAuth {
			if err := m.flushBlockSync(b); err != nil {
				return err
			}
			continue
		}
		if err := m.flushRunEager(b, 1); err != nil {
			return err
		}
		if !written {
			m.setState(b, 1, StateReadOnly)
		}
	}
	if written {
		// "System memory gets invalidated on kernel calls." Blocks already
		// invalidated by a preceding call in the same call/return window were
		// not Dirty, so they are not re-sent — re-sending would clobber
		// in-flight kernel output.
		m.setState(o.blocks[0], len(o.blocks), StateInvalid)
	}
	return nil
}

// acquireAll runs the acquire actions after kernel completion, on the
// objects used by any kernel launched since the previous Sync: several
// asynchronous calls may share one Sync, and a Sync with nothing launched
// before it must not re-fetch objects over the host's writes. Only
// host-authoritative objects have acquire work, so the sweep is skipped
// entirely — with zero allocations — unless the configured policy is
// host-authoritative. The caller holds callMu.
func (m *Manager) acquireAll() error {
	launched := m.launched
	m.launched = m.launched[:0]
	if len(launched) == 0 || !policies[m.cfg.Protocol].hostAuth {
		return nil
	}
	var err error
	m.eachInvokeObject(launched, func(o *Object) {
		if err != nil || o.degraded.Load() {
			return
		}
		err = m.acquireObject(o)
	})
	return err
}

// acquireObject performs one object's acquire actions: the policy's
// Figure 6 return edge, narrowed by the access mode. The caller holds o.mu;
// o is live and not degraded.
func (m *Manager) acquireObject(o *Object) error {
	if o.pol.sealed {
		// Replicated once: both copies are identical forever, so nothing
		// travels. A host-authoritative replica books every block's return
		// fetch as elided.
		if o.pol.hostAuth {
			m.stats.FetchElisions.Add(int64(len(o.blocks)))
		}
		return nil
	}
	switch {
	case !o.pol.hostAuth:
		// Nothing: blocks stay invalid until the CPU actually touches them.
	case o.mode == ModeWriteOnly:
		// The host only writes o: fetching kernel output it will never read
		// is pure waste. Leave every block Dirty so the next release re-sends
		// whatever the host produces.
		m.setState(o.blocks[0], len(o.blocks), StateDirty)
		m.stats.FetchElisions.Add(int64(len(o.blocks)))
	default:
		// Transfer every block of the call's scope back and mark it dirty,
		// implicitly invalidating the accelerator copy. Objects bound to
		// other kernels never went to the device for this call, so fetching
		// them would clobber the host's authoritative copy.
		//
		// The transfer is charged in full either way, but unless a fault
		// injector is armed no byte lands now: the pages are owed, reads
		// take them from the device and a write or view copies one in
		// first (Object.owed), and most are never touched. With an
		// injector a transfer can fail, and a degraded object must keep
		// the bytes of its last successful acquire (recover.go), so the
		// bytes land at once.
		owe := !m.dev.Armed()
		for _, b := range o.blocks {
			if err := m.fetchRunSync(b, 1, owe); err != nil {
				return err
			}
			m.setState(b, 1, StateDirty)
		}
	}
	return nil
}

// sealReadOnly replicates a ModeReadOnly object once and seals it: dirty
// initialisation data is flushed, every block lands ReadOnly behind
// read-only pages, and from here on the object is never flushed, fetched or
// invalidated again — zero fault-service DMA for the rest of its life.
// Host writes after the seal, through any entry point, fail with
// ErrModeViolation before they touch either copy (enter). The caller holds
// o.mu.
func (m *Manager) sealReadOnly(o *Object) error {
	if o.pol.sealed {
		return nil
	}
	// Queued dirty blocks are flushed right here; drop the cache's claim.
	m.rolling.forget(o)
	for _, b := range o.blocks {
		switch b.state {
		case StateDirty:
			if err := m.flushRunEager(b, 1); err != nil {
				return err
			}
		case StateInvalid:
			// Unreachable today — read-only objects are never invalidated —
			// but fetch defensively so the seal never publishes stale bytes.
			if err := m.fetchRunSync(b, 1, false); err != nil {
				return err
			}
		case StateReadOnly:
		}
	}
	// Seal first: from here on the object detects accesses under every
	// protocol, so the transition protects a host-authoritative replica too.
	// The sealed policy keeps its geometry and host authority.
	o.pol.detects, o.pol.rolls, o.pol.sealed = true, false, true
	m.setState(o.blocks[0], len(o.blocks), StateReadOnly)
	return nil
}

// eachInvokeObject visits the objects a release or acquire sweep for the
// given kernels affects: those bound to any of them, or unbound (used by
// all kernels). Each callback runs under the object's lock; objects freed
// since the snapshot are skipped.
func (m *Manager) eachInvokeObject(kernels []string, f func(o *Object)) {
	for _, o := range m.reg.snapshot() {
		o.mu.Lock()
		if !o.dead && slices.ContainsFunc(kernels, o.UsedBy) {
			f(o)
		}
		o.mu.Unlock()
	}
}
