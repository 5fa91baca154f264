package core

import (
	"repro/internal/oplog"
	"repro/internal/trace"
)

// This file is the event spine. Every coherence event is emitted exactly
// once, as an oplog.Op, through emit; the op log, Stats and the
// adsm_*_total families it feeds, the owning object's row and the trace
// events are all views derived here from that one op (the race verdict is
// derived offline, from the recorded stream: internal/racecheck). A call site
// says what happened and to which object, never which views care.

// emit stamps op with the current virtual time, this manager's id, the
// calling goroutine's host lane and o's sequence number (o is the object
// the op concerns, nil for none), records it into the manager's ring and,
// for the traced kinds, the tracer (if installed), and folds it into
// every derived view.
//
//adsm:noalloc
func (m *Manager) emit(op oplog.Op, o *Object) {
	op.At = m.clock.Now()
	op.Mgr = uint16(m.id)
	op.Lane = m.clock.LaneID()
	var row *objCounters
	if o != nil {
		op.Obj = o.seq
		row = &o.counters
	}
	m.ring.Load().Record(op)
	m.stats.apply(op, row)
	if t := m.tracer; t != nil && tracedKinds&(1<<op.Kind) != 0 {
		t.Record(op)
	}
}

// apply is the fold: the only code that says what an op means to the event
// counters, of the manager (c) and of the op's object (row, nil for none).
// Folding a recorded stream into a zero statsCounters reproduces the
// recorded run's Stats.Counters() on every counter but unfoldedCounters.
// The virtual-time accumulators (SearchTime, H2DWait, D2HWait, H2DDrain)
// are not counters of events and are added where the time is measured.
//
//adsm:noalloc
func (c *statsCounters) apply(op oplog.Op, row *objCounters) {
	switch op.Kind {
	case oplog.OpFault:
		write := op.Flags&oplog.FlagWrite != 0
		c.Faults.Add(1)
		if write {
			c.WriteFaults.Add(1)
		} else {
			c.ReadFaults.Add(1)
		}
		if row != nil {
			if write {
				row.writeFaults++
			} else {
				row.readFaults++
			}
		}
	case oplog.OpFetch:
		c.BytesD2H.Add(op.Size)
		c.TransfersD2H.Add(1)
		if op.Arg > 0 { // a span batch of Arg blocks
			c.FaultBatches.Add(1)
			c.PrefetchedBlocks.Add(op.Arg - 1)
		}
		if row != nil {
			row.bytesD2H += op.Size
			row.transfersD2H++
		}
	case oplog.OpFlush:
		c.BytesH2D.Add(op.Size)
		c.TransfersH2D.Add(1)
		if row != nil {
			row.bytesH2D += op.Size
			row.transfersH2D++
		}
	case oplog.OpEvict:
		// Evictions count blocks, not transfers, so the counter stays
		// comparable whether or not coalescing is enabled.
		c.Evictions.Add(op.Arg)
		if row != nil {
			row.evictions.Add(op.Arg)
		}
	case oplog.OpAlloc:
		c.Allocs.Add(1)
	case oplog.OpFree:
		c.Frees.Add(1)
	case oplog.OpInvoke:
		c.Invokes.Add(1)
	case oplog.OpSync:
		c.Syncs.Add(1)
	case oplog.OpRetry:
		if op.Flags&oplog.FlagGiveup != 0 {
			c.RetryGiveups.Add(1)
		} else {
			c.Retries.Add(1)
		}
	case oplog.OpDegrade:
		c.DegradedObjects.Add(1)
	case oplog.OpDeviceLost:
		c.DeviceLostEvents.Add(1)
	}
}

// unfoldedCounters are the Stats counters apply does not derive: decisions
// and byte sums that have no op of their own, written directly where they
// happen. TestFoldReproducesTotals fails for a counter that has neither a
// fold rule nor an entry here.
var unfoldedCounters = []string{
	"SpanPromotions", "SpanDemotions", // faultRunLen's granularity decisions
	"FetchElisions",               // transfers an access mode proved unnecessary
	"PeerBytesIn", "PeerBytesOut", // per-block sums inside one OpIOWrite/OpIORead
}

// tracedKinds are the op kinds a tracer records: the protocol events of
// the trace listing. Host accesses, kernel arguments and annotations stay
// out of it; block state transitions reach the tracer
// from emitTransition.
const tracedKinds uint32 = 1<<oplog.OpAlloc | 1<<oplog.OpFree | 1<<oplog.OpFault |
	1<<oplog.OpFetch | 1<<oplog.OpFlush | 1<<oplog.OpEvict | 1<<oplog.OpInvoke |
	1<<oplog.OpSync | 1<<oplog.OpRetry | 1<<oplog.OpDegrade | 1<<oplog.OpDeviceLost

// renderOp is the trace rendering of an event op (a trace.Renderer,
// installed by SetSpanTracer): its name, the from/to of a transition, and
// a note. It runs when a trace is read, never on the emit path.
func renderOp(op oplog.Op) (name, from, to, note string) {
	name = op.Kind.String()
	switch op.Kind {
	case oplog.OpFault:
		if op.Obj != 0 { // an unshared-address fault has no block state
			note = "read in " + State(op.Arg).String()
			if op.Flags&oplog.FlagWrite != 0 {
				note = "write in " + State(op.Arg).String()
			}
		}
	case oplog.OpFetch:
		if op.Arg > 0 {
			note = "run"
		}
	case oplog.OpFlush:
		note = "eager"
		if op.Flags&oplog.FlagSync != 0 {
			note = "sync"
		}
	case oplog.OpInvoke, oplog.OpRetry, oplog.OpDeviceLost:
		note = oplog.NoteString(op.Note)
	case oplog.OpTransition:
		from, to = State(op.Arg>>8).String(), State(op.Arg&0xff).String()
	}
	return name, from, to, note
}

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
