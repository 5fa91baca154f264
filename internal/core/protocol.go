package core

import (
	"fmt"

	"repro/internal/hostmmu"
	"repro/internal/mem"
	"repro/internal/oplog"
	"repro/internal/trace"
)

// This file is the coherence-protocol engine. The protocol is a per-object
// property (Object.proto): most objects run the manager's configured
// protocol, but ModeAuto objects migrate between protocols online (mode.go),
// so every dispatch switches on the object rather than the manager. All
// actions run on the CPU timeline; the accelerator performs no coherence
// work.
//
// The release sweep (releaseAll, before a kernel launch) and the acquire
// sweep (acquireAll, after kernel completion) also honour the declared
// access modes: read-only objects seal instead of travelling, write-only
// objects skip fetches of data the host will overwrite, and per-call hints
// elide flushes and invalidations the kernel's declaration proves
// unnecessary.

// protFor is the page protection each Figure 6 state sits behind, on the
// objects whose pages detect accesses at all (detects).
var protFor = [...]hostmmu.Prot{
	StateInvalid:  hostmmu.ProtNone,
	StateReadOnly: hostmmu.ProtRead,
	StateDirty:    hostmmu.ProtReadWrite,
}

// detects reports whether o's page protections track its block states.
// Batch-update never takes faults and leaves its pages read/write — except
// for a sealed read-only replica, which sits behind read-only pages so a
// host write is caught as a mode violation. The caller holds o.mu.
func (o *Object) detects() bool { return o.proto != BatchUpdate || o.sealed }

// setState is the Figure 6 transition and the only writer of Block.state:
// it moves the n consecutive blocks starting at first to state to and, when
// their object detects accesses, re-protects the run's pages to match with
// a single mprotect (one charge). The caller holds first.obj.mu.
//
//adsm:noalloc
func (m *Manager) setState(first *Block, n int, to State) {
	o := first.obj
	for _, b := range o.blocks[first.index : first.index+n] {
		b.state = to
	}
	if o.detects() {
		m.setProtRun(first, n, protFor[to])
	}
}

// hostAuthoritative reports whether o's host copy is the current version of
// every byte between kernel calls, so bulk and peer operations act on host
// memory alone: under batch-update (re-sent wholesale at the next invoke)
// and once o is degraded (never transferred again). It is asked of the
// object, not the manager — a ModeAuto object leaves the configured
// protocol. The caller holds o.mu.
func (m *Manager) hostAuthoritative(o *Object) bool {
	return o.proto == BatchUpdate || m.degradedLocked(o)
}

// protoAlloc sets the initial state and protection of a new object, by its
// governing protocol.
func (m *Manager) protoAlloc(o *Object) {
	// Lazy-update detects CPU accesses with the memory protection hardware
	// at object granularity; rolling-update refines it with fixed-size
	// blocks and a bounded rolling cache of dirty blocks.
	to := StateReadOnly
	if o.proto == BatchUpdate {
		// Pages stay read/write: batch-update never takes faults. Every
		// object crosses the bus in both directions at every call/return
		// boundary, with no access detection at all — what programmers tend
		// to write first (Section 5.1 measures slowdowns of up to 65x).
		to = StateDirty
	}
	m.setState(o.blocks[0], len(o.blocks), to)
}

// protoFault resolves a protection fault on a block (the Figure 6 edges)
// per the faulted object's governing protocol. The caller holds b.obj.mu.
//
//adsm:noalloc
func (m *Manager) protoFault(b *Block, access hostmmu.Access) error {
	switch b.obj.proto {
	case BatchUpdate:
		// Batch-update leaves pages read/write; a fault can only mean a
		// manager bug (mode violations were vetted before dispatch).
		return errBatchFault(access, b.addr)
	case LazyUpdate:
		return resolveFault(m, b, access)
	case RollingUpdate:
		return m.rollingFault(b, access)
	}
	return errBatchFault(access, b.addr) // unreachable: proto is validated
}

// rollingFault is the rolling-update fault edge: resolve like lazy-update,
// then enqueue newly dirty blocks in the rolling cache, flushing the
// eviction run that falls out. The caller holds b.obj.mu.
func (m *Manager) rollingFault(b *Block, access hostmmu.Access) error {
	if err := resolveFault(m, b, access); err != nil {
		return err
	}
	if b.state == StateDirty && !b.obj.degraded.Load() {
		if victim, run := m.rolling.push(b); victim != nil {
			m.emit(oplog.Op{Kind: oplog.OpEvict, Addr: victim.addr,
				Size: runSize(victim, run), Arg: int64(run)}, victim.obj)
			if victim.obj == b.obj {
				// Same object: this fault already holds its lock. The run's
				// blocks were just popped and cannot have been re-queued, so
				// skip the queued re-check.
				if err := m.flushEvicted(victim, run, false); err != nil {
					return err
				}
			} else {
				// Flushing now would need a second Object.mu; defer to the
				// entry point, which drains after releasing its own lock.
				m.deferEviction(victim, run)
			}
		}
		occ := int64(m.rolling.Len())
		m.mets.rollingOcc.Set(occ)
		m.mets.rollingHist.Observe(occ)
	}
	return nil
}

// haveRollingWork reports whether the release sweep must drain the rolling
// cache: always under a rolling-update manager, and whenever auto-mode
// migration has moved any object onto rolling-update.
func (m *Manager) haveRollingWork() bool {
	return m.cfg.Protocol == RollingUpdate || m.rollingObjs.Load() > 0
}

// releaseAll runs the release actions of a kernel invocation: the rolling
// cache is drained first, then every object in the call's scope is released
// under its own protocol and access mode. The caller holds callMu.
func (m *Manager) releaseAll(ih *invokeHints) error {
	if m.haveRollingWork() {
		if err := m.releaseRollingCache(ih); err != nil {
			return err
		}
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
// of rolling-governed objects). Out-of-scope dirty blocks (objects bound to
// other kernels, §3.3) are flushed too — flushing early is always safe and
// keeps the cache bookkeeping simple — but they are not invalidated by the
// release sweep. Blocks of objects the call hints as fully overwritten are
// left dirty for releaseObject to invalidate without the write-back.
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
		if ih.wo[o] && o.UsedBy(m.invokeKernel) {
			// The kernel declared it fully overwrites o: its dirty data is
			// dead, so skip the write-back. releaseObject invalidates the
			// blocks and books the elision.
			i = j
			continue
		}
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
// of travelling, objects hinted write-only for this call invalidate without
// the flush, and everything else follows its protocol's release edge. The
// caller holds o.mu; o is live and not degraded.
func (m *Manager) releaseObject(o *Object, ih *invokeHints) error {
	if o.mode == ModeReadOnly {
		return m.sealReadOnly(o)
	}
	if ih.wo[o] {
		return m.invalidateUnflushed(o)
	}
	// Flush every dirty block. Batch-update transfers synchronously and keeps
	// a non-written object Dirty: with no access detection it cannot know
	// whether the CPU will modify the object and must conservatively re-send
	// every call. Lazy and rolling flush eagerly (under rolling the cache
	// drain has already flushed the queued blocks; a dirty block here is the
	// normal case under lazy) and, both copies now matching, downgrade the
	// block to catch the next CPU write.
	written := ih.written(o)
	for _, b := range o.blocks {
		if b.state != StateDirty {
			continue
		}
		if o.proto == BatchUpdate {
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
// before it must not re-fetch objects over the host's writes. Under the
// default modes only batch-update has acquire work, so the sweep is skipped
// entirely — with zero allocations — unless the configured protocol is
// batch-update or some object carries a non-default access mode. The caller
// holds callMu.
func (m *Manager) acquireAll() error {
	launched := m.launched
	m.launched = m.launched[:0]
	if len(launched) == 0 || (m.cfg.Protocol != BatchUpdate && m.moded.Load() == 0) {
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

// acquireObject performs one object's acquire actions: the protocol's
// Figure 6 return edge, narrowed by the access mode, then the auto-mode
// migration step. The caller holds o.mu; o is live and not degraded.
func (m *Manager) acquireObject(o *Object) error {
	if o.mode == ModeReadOnly && o.sealed {
		// Replicated once: both copies are identical forever, so nothing
		// travels. Under batch-update every block's return fetch is elided.
		if o.proto == BatchUpdate {
			m.stats.FetchElisions.Add(int64(len(o.blocks)))
		}
		return nil
	}
	switch o.proto {
	case BatchUpdate:
		if o.mode == ModeWriteOnly {
			// The host only writes o: fetching kernel output it will never
			// read is pure waste. Leave every block Dirty so the next
			// release re-sends whatever the host produces.
			m.setState(o.blocks[0], len(o.blocks), StateDirty)
			m.stats.FetchElisions.Add(int64(len(o.blocks)))
			break
		}
		// Transfer every block of the call's scope back and mark it dirty,
		// implicitly invalidating the accelerator copy. Objects bound to
		// other kernels never went to the device for this call, so fetching
		// them would clobber the host's authoritative copy.
		for _, b := range o.blocks {
			if err := m.fetchRunSync(b, 1); err != nil {
				return err
			}
			m.setState(b, 1, StateDirty)
		}
	case LazyUpdate, RollingUpdate:
		// Nothing: blocks stay invalid until the CPU actually touches them.
	}
	if o.mode == ModeAuto {
		return m.autoStep(o)
	}
	return nil
}

// sealReadOnly replicates a ModeReadOnly object once and seals it: dirty
// initialisation data is flushed, every block lands ReadOnly behind
// read-only pages, and from here on the object is never flushed, fetched or
// invalidated again — zero fault-service DMA for the rest of its life.
// Host writes after the seal fault and fail with ErrModeViolation
// (checkModeFault). The caller holds o.mu.
func (m *Manager) sealReadOnly(o *Object) error {
	if o.sealed {
		return nil
	}
	if o.proto == RollingUpdate {
		// Queued dirty blocks are flushed right here; drop the cache's claim.
		m.rolling.forget(o)
	}
	for _, b := range o.blocks {
		switch b.state {
		case StateDirty:
			if err := m.flushRunEager(b, 1); err != nil {
				return err
			}
		case StateInvalid:
			// Unreachable today — read-only objects are never invalidated —
			// but fetch defensively so the seal never publishes stale bytes.
			if err := m.fetchRunSync(b, 1); err != nil {
				return err
			}
		case StateReadOnly:
		}
	}
	// Sealed first: from here on the object detects accesses under every
	// protocol, so the transition protects a batch-governed replica too.
	o.sealed = true
	m.setState(o.blocks[0], len(o.blocks), StateReadOnly)
	return nil
}

// invalidateUnflushed invalidates o without flushing its dirty data: the
// kernel declared (WriteOnlyHint) that it fully overwrites the object, so
// the host-dirty bytes are dead and the write-back DMA is elided. The
// caller holds o.mu.
func (m *Manager) invalidateUnflushed(o *Object) error {
	m.stats.FlushElisions.Add(int64(o.countState(StateDirty)))
	m.setState(o.blocks[0], len(o.blocks), StateInvalid)
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

// resolveFault implements the shared Figure 6(b) transitions for lazy- and
// rolling-update: Invalid data is fetched from the accelerator; the block
// lands in ReadOnly after a read fault or Dirty after a write fault.
// Write-only objects skip the fetch on a write fault — the host promised to
// overwrite the block, so Invalid bytes never DMA host-ward.
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
		// faulting block itself transitions by access kind.
		n := m.faultRunLen(b)
		if err := m.fetchRunSync(b, n); err != nil {
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

// emitTransition records a block state transition when tracing is on; the
// hot path (no tracer) pays a single nil check and no deferred closure.
func (m *Manager) emitTransition(b *Block, before State) {
	if m.tracer == nil || b.state == before {
		return
	}
	m.tracer.Append(trace.Event{At: m.clock.Now(), Kind: trace.EvTransition,
		Addr: b.addr, Size: b.size, From: before.String(), To: b.state.String()})
}
