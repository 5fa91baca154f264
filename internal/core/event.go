package core

import (
	"repro/internal/oplog"
	"repro/internal/trace"
)

// This file is the event spine. Every coherence event is emitted exactly
// once, as an oplog.Op, through emit; the op log, the race detector, Stats
// and the adsm_*_total families it feeds, the owning object's row and the
// trace events are all views derived here from that one op. A call site
// says what happened and to which object, never which views care.

// emit stamps op with the current virtual time, this manager's id, the
// calling goroutine's host lane and o's sequence number (o is the object
// the op concerns, nil for none), appends it to the flight ring, the
// capture ring (if capturing) and the online race detector (if enabled),
// and folds it into every derived view.
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
	oplog.Flight().Record(op)
	if r := m.rec.Load(); r != nil {
		r.Record(op)
	}
	if d := m.race; d != nil {
		d.Feed(op)
	}
	m.stats.apply(op, row)
	if m.tracer != nil {
		m.traceOp(op)
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
			row.faults.Add(1)
			if write {
				row.writeFaults.Add(1)
			} else {
				row.readFaults.Add(1)
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
			row.bytesD2H.Add(op.Size)
			row.transfersD2H.Add(1)
		}
	case oplog.OpFlush:
		c.BytesH2D.Add(op.Size)
		c.TransfersH2D.Add(1)
		if row != nil {
			row.bytesH2D.Add(op.Size)
			row.transfersH2D.Add(1)
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
	case oplog.OpRegionAcquire:
		c.RegionAcquires.Add(1)
	case oplog.OpRegionRelease:
		c.RegionReleases.Add(1)
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
	case oplog.OpModeMigrate:
		c.ModeMigrations.Add(1)
	}
}

// unfoldedCounters are the Stats counters apply does not derive: decisions
// and byte sums that have no op of their own, written directly where they
// happen. TestFoldReproducesTotals fails for a counter that has neither a
// fold rule nor an entry here.
var unfoldedCounters = []string{
	"SpanPromotions", "SpanDemotions", // faultRunLen's granularity decisions
	"FetchElisions", "FlushElisions", // transfers an access mode proved unnecessary
	"PeerBytesIn", "PeerBytesOut", // per-block sums inside one OpIOWrite/OpIORead
	"RacesDetected", // the detector's verdicts on the stream, not an op in it
}

// faultNotes are the trace annotations of fault events, indexed by
// FlagWrite and the block state at fault time.
var faultNotes = [2][3]string{
	{"read in Invalid", "read in ReadOnly", "read in Dirty"},
	{"write in Invalid", "write in ReadOnly", "write in Dirty"},
}

// traceOp renders op as the trace event of its kind; kinds without one
// (host accesses, annotations, region scopes) leave no event. Block state
// transitions have no op and are the one event emitted directly
// (emitTransition).
//
//adsm:cold
func (m *Manager) traceOp(op oplog.Op) {
	e := trace.Event{At: op.At, Addr: op.Addr, Size: op.Size}
	switch op.Kind {
	case oplog.OpAlloc:
		e.Kind = trace.EvAlloc
	case oplog.OpFree:
		e.Kind = trace.EvFree
	case oplog.OpFault:
		e.Kind = trace.EvFault
		if op.Obj != 0 { // an unshared-address fault has no block state
			e.Note = faultNotes[op.Flags&oplog.FlagWrite][op.Arg]
		}
	case oplog.OpFetch:
		e.Kind = trace.EvFetch
		if op.Arg > 0 {
			e.Note = "run"
		}
	case oplog.OpFlush:
		e.Kind, e.Note = trace.EvFlush, "eager"
		if op.Flags&oplog.FlagSync != 0 {
			e.Note = "sync"
		}
	case oplog.OpEvict:
		e.Kind = trace.EvEvict
	case oplog.OpInvoke:
		e.Kind, e.Note = trace.EvInvoke, oplog.NoteString(op.Note)
	case oplog.OpSync:
		e.Kind = trace.EvSync
	case oplog.OpRetry:
		e.Kind, e.Note = trace.EvRetry, oplog.NoteString(op.Note)
	case oplog.OpDegrade:
		e.Kind = trace.EvDegrade
	case oplog.OpDeviceLost:
		e.Kind, e.Note = trace.EvDeviceLost, oplog.NoteString(op.Note)
	case oplog.OpModeMigrate:
		e.Kind, e.Note = trace.EvTransition, "mode-migrate"
		e.From, e.To = ProtocolKind(op.Arg>>8).String(), ProtocolKind(op.Arg&0xff).String()
	default:
		return
	}
	m.tracer.Append(e)
}
