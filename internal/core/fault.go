package core

import (
	"fmt"

	"repro/internal/hostmmu"
	"repro/internal/mem"
	"repro/internal/oplog"
	"repro/internal/sim"
)

// This file is the fault-service layer: the MMU's fault handler finds the
// faulted block (§5.2's search), checks the object's access mode, and
// resolves the Figure 6 transition under the object's policy, fetching an
// Invalid run in one DMA and pushing a newly dirty block into the rolling
// FIFO.

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
	b, visits := m.reg.blockAt(f.Addr)
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
