package core

import (
	"fmt"

	"repro/internal/hostmmu"
	"repro/internal/mem"
	"repro/internal/oplog"
)

// This file is the coherence-protocol engine. The paper's three protocols
// are one machine (§4.3): rolling-update is lazy-update with fixed-size
// blocks and a bounded FIFO of dirty blocks, and batch-update is the same
// object with access detection off. So a protocol is not a branch but a
// per-object policy value (Object.pol) read on one path: every object runs
// the manager's configured protocol, and sealing a ModeReadOnly object
// swaps in a sealed copy of it.
// All actions run on the CPU timeline; the accelerator performs no
// coherence work.
//
// The release sweep (releaseAll, before a kernel launch) and the acquire
// sweep (acquireAll, after kernel completion) also honour the declared
// access modes: read-only objects seal instead of travelling, write-only
// objects skip fetches of data the host will overwrite, and per-call hints
// elide flushes and invalidations the kernel's declaration proves
// unnecessary.

// policy is a coherence protocol as a value: the choices its edges read.
type policy struct {
	detects bool // page protections track block states (protFor)
	blocked bool // carved into Config.BlockSize blocks, not one block
	rolls   bool // a newly dirty block joins the bounded rolling FIFO
	// hostAuth: with no access detection, the host copy is current between
	// kernel calls. The object starts Dirty, a flush is synchronous and
	// leaves it Dirty, every acquire fetches all of it back Dirty, and bulk
	// and peer operations act on host memory.
	hostAuth bool
	sealed   bool // a ModeReadOnly replica past its first release (sealReadOnly)
}

// policies maps each protocol kind to its policy.
var policies = [...]policy{
	BatchUpdate:   {hostAuth: true},
	LazyUpdate:    {detects: true},
	RollingUpdate: {detects: true, blocked: true, rolls: true},
}

// protFor is the page protection each Figure 6 state sits behind, on the
// objects whose pages detect accesses at all (detects).
var protFor = [...]hostmmu.Prot{
	StateInvalid:  hostmmu.ProtNone,
	StateReadOnly: hostmmu.ProtRead,
	StateDirty:    hostmmu.ProtReadWrite,
}

// detects reports whether o's page protections track its block states:
// false only for an unsealed batch-update object, whose pages stay
// read/write. The caller holds o.mu.
func (o *Object) detects() bool { return o.pol.detects }

// setState is the Figure 6 transition and the only writer of Block.state:
// it moves the n consecutive blocks starting at first to state to and, when
// their object detects accesses, re-protects the run's pages to match with
// a single mprotect (one charge). An Invalid block is no longer current:
// the device copy is the one that may now change. The caller holds
// first.obj.mu.
//
//adsm:noalloc
func (m *Manager) setState(first *Block, n int, to State) {
	o := first.obj
	for _, b := range o.blocks[first.index : first.index+n] {
		b.state = to
		b.current = b.current && to != StateInvalid
	}
	if o.detects() {
		m.setProtRun(first, n, protFor[to])
	}
}

// hostAuthoritative reports whether o's host copy is the current version of
// every byte between kernel calls, so bulk and peer operations act on host
// memory alone: under a host-authoritative policy (re-sent wholesale at the
// next invoke) and once o is degraded (never transferred again). The
// caller holds o.mu.
func (m *Manager) hostAuthoritative(o *Object) bool {
	return o.pol.hostAuth || m.degradedLocked(o)
}

// protoFault resolves a protection fault on a block (the Figure 6 edges)
// under the faulted object's policy: resolve the transition, then enqueue a
// newly dirty block of a rolling object in the rolling FIFO, flushing the
// eviction run that falls out. The caller holds b.obj.mu.
//
//adsm:noalloc
func (m *Manager) protoFault(b *Block, access hostmmu.Access) error {
	o := b.obj
	if !o.detects() {
		// Pages stay read/write; a fault can only mean a manager bug (mode
		// violations were vetted before dispatch).
		return errBatchFault(access, b.addr)
	}
	if err := resolveFault(m, b, access); err != nil {
		return err
	}
	if !o.pol.rolls || b.state != StateDirty || o.degraded.Load() {
		return nil
	}
	if victim, run := m.rolling.push(b); victim != nil {
		m.emit(oplog.Op{Kind: oplog.OpEvict, Addr: victim.addr,
			Size: runSize(victim, run), Arg: int64(run)}, victim.obj)
		if victim.obj == o {
			// Same object: this fault already holds its lock. The run's
			// blocks were just popped and cannot have been re-queued, so
			// skip the queued re-check.
			if err := m.flushEvicted(victim, run, false); err != nil {
				return err
			}
		} else {
			// Flushing now would need a second Object.mu; defer to the entry
			// point, which drains after releasing its own lock.
			m.deferEviction(victim, run)
		}
	}
	occ := int64(m.rolling.Len())
	m.mets.rollingOcc.Set(occ)
	m.mets.rollingHist.Observe(occ)
	return nil
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

// maxFaultRun caps a span-fault batch, mirroring maxEvictRun on the
// eviction side: one fault-service DMA covers at most this many blocks.
const maxFaultRun = 16

// faultRunLen decides how many blocks the fault on b should fetch in one
// DMA, and advances the object's adaptive streak state. The span starts at
// one block, doubles each time a fault lands exactly where the previous
// run ended (a sequential streak: the streaming pattern Cudennec's S-DSM
// survey identifies as the granularity win), and resets to one block on
// any other fault (random access must not over-fetch). The returned run
// never exceeds the contiguous stretch of Invalid blocks from b, the
// adaptive span, maxFaultRun, or the object end. The caller holds
// b.obj.mu; b is StateInvalid.
//
//adsm:noalloc
func (m *Manager) faultRunLen(b *Block) int {
	o := b.obj
	if m.cfg.DisableFaultBatching || len(o.blocks) == 1 {
		return 1
	}
	span := 1
	if b.index == o.nextFaultIdx {
		span = o.fetchSpan * 2
		if span > maxFaultRun {
			span = maxFaultRun
		}
		if span > o.fetchSpan {
			m.stats.SpanPromotions.Add(1)
		}
	} else if o.fetchSpan > 1 {
		m.stats.SpanDemotions.Add(1)
	}
	o.fetchSpan = span
	n := 1
	for n < span && b.index+n < len(o.blocks) && o.blocks[b.index+n].state == StateInvalid {
		n++
	}
	o.nextFaultIdx = b.index + n
	return n
}

// resolveFault implements the Figure 6(b) transitions of every detecting
// policy: Invalid data is fetched from the accelerator; the block
// lands in ReadOnly after a read fault or Dirty after a write fault.
// Write-only objects skip the fetch on a write fault — the host promised to
// overwrite the block, so Invalid bytes never DMA host-ward — and pull
// nothing either: no fetch ever reads a WriteOnly object (checkModeFault,
// checkModeRead, acquireObject), so it owes no page, and the Dirty block
// the elision leaves, which is not current and writes back whole, sends
// no stale owed byte.
//
//adsm:noalloc
func resolveFault(m *Manager, b *Block, access hostmmu.Access) error {
	// A fault on an object whose device is already known-lost degrades it in
	// place: the host copy (stale or not) becomes authoritative, matching the
	// drainEvictions sweep instead of failing the access.
	before := b.state
	if m.degradedLocked(b.obj) {
		m.emitTransition(b, before)
		return nil
	}
	switch b.state {
	case StateInvalid:
		if access == hostmmu.AccessWrite && b.obj.mode == ModeWriteOnly {
			m.stats.FetchElisions.Add(1)
			m.setState(b, 1, StateDirty)
			m.emitTransition(b, before)
			return nil
		}
		// Fetch the Invalid run the streak detector sized (one block, or a
		// span batch) in one DMA. Prefetched blocks land ReadOnly — both
		// copies match, and the next CPU write still faults — while the
		// faulting block itself transitions by access kind. The transfer
		// is charged in full, but unless a fault injector is armed no byte
		// lands: the run's pages are owed (Object.owed), as in
		// acquireObject. A run of one page is the page the access is about
		// to touch, and owing it would only turn the access into a read
		// through or a pull of the same page, so the transfer lands it.
		n := m.faultRunLen(b)
		owe := !m.dev.Armed() && runSize(b, n) > int64(1)<<b.obj.pageShift
		if err := m.fetchRunSync(b, n, owe); err != nil {
			m.emitTransition(b, before)
			return err
		}
		if access == hostmmu.AccessWrite {
			m.setState(b, 1, StateDirty)
			if n > 1 {
				m.setState(b.obj.blocks[b.index+1], n-1, StateReadOnly)
			}
		} else {
			m.setState(b, n, StateReadOnly)
		}
		m.emitTransition(b, before)
		return nil
	case StateReadOnly:
		if access != hostmmu.AccessWrite {
			return errReadFaultOnReadOnly(b.addr)
		}
		m.setState(b, 1, StateDirty)
		m.emitTransition(b, before)
		return nil
	default: // StateDirty
		return errFaultOnDirty(access, b.addr)
	}
}

// The impossible-transition errors below can only fire on a manager bug;
// their formatting lives off the //adsm:noalloc fault paths.

//adsm:cold
func errBatchFault(access hostmmu.Access, addr mem.Addr) error {
	return fmt.Errorf("core: unexpected %v fault at %#x under batch-update",
		access, uint64(addr))
}

//adsm:cold
func errReadFaultOnReadOnly(addr mem.Addr) error {
	return fmt.Errorf("core: read fault on ReadOnly block %#x", uint64(addr))
}

//adsm:cold
func errFaultOnDirty(access hostmmu.Access, addr mem.Addr) error {
	return fmt.Errorf("core: %v fault on Dirty block %#x", access, uint64(addr))
}

// emitTransition records a block state transition as an OpTransition into
// the tracer, and nowhere else: no counter, capture or flight ring sees
// it. The hot path (no tracer) pays a single nil check.
func (m *Manager) emitTransition(b *Block, before State) {
	t := m.tracer
	if t == nil || b.state == before {
		return
	}
	t.Record(oplog.Op{At: m.clock.Now(), Kind: oplog.OpTransition, Mgr: uint16(m.id),
		Lane: m.clock.LaneID(), Obj: b.obj.seq, Addr: b.addr, Size: b.size,
		Arg: int64(before)<<8 | int64(b.state)})
}
