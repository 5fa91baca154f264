package core

import (
	"repro/internal/accel"
	"repro/internal/mem"
	"repro/internal/oplog"
	"repro/internal/sim"
)

// This file is the transfer layer: the manager's DMAs between host and
// accelerator memory. A stalling transfer (dmaSync) serves faults and
// batch-update flushes; an eager one (flushRunEager) serves rolling
// evictions behind a two-slot H2D double buffer. Injected faults are
// retried inline and an unrecoverable one escalates (recover.go).

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
