// Op-stream recording: the manager's side of internal/oplog.
//
// Every manager records each op once, into its own ring: the always-on
// black box (FlightLog). EnableRecorder swaps in a ring sized to hold a
// whole run for the record/replay workflow (cmd/adsmtrace -record,
// gmacbench -record, the replay conformance tests), which stays on as
// the flight window after FinishOpLog.
//
// The record path (emit, event.go) runs inside the fault handler and the
// host-access fast paths, so it is allocation-free: an op is a plain value,
// the ring stores it with one slot copy under its mutex, and all string
// context is interned ahead of time (oplog.NoteID) on cold paths.

package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/oplog"
)

// EnableRecorder starts a capture: it swaps in a fresh ring of the given
// capacity (DefaultRingCapacity if <= 0) carrying this manager's header,
// so the ring receives every op from here on. The caller sizes it to the
// expected run length; FinishOpLog fails if it wrapped.
func (m *Manager) EnableRecorder(capacity int) {
	m.ring.Store(oplog.NewFlightRing(capacity, m.OpLogHeader()))
	m.capturing.Store(true)
}

// OpLogHeader describes this manager's configuration for a recorded
// stream's header.
func (m *Manager) OpLogHeader() oplog.Header {
	h := oplog.Header{
		Protocol:     int32(m.cfg.Protocol),
		BlockSize:    m.cfg.BlockSize,
		RollingDelta: RollingDelta,
		FixedRolling: int32(m.cfg.FixedRolling),
		MaxRetries:   int32(m.cfg.MaxRetries),
	}
	if m.cfg.DisableFaultBatching {
		h.Flags |= oplog.HdrNoFaultBatch
	}
	return h
}

// FinishOpLog ends the capture and packages the ring's contents as a
// complete Log with this manager's final counter totals. It fails if no
// capture was started or if the ring wrapped (the stream would be
// incomplete — record again with a larger capacity).
func (m *Manager) FinishOpLog(label string) (*oplog.Log, error) {
	if !m.capturing.Swap(false) {
		return nil, fmt.Errorf("core: no recorder installed")
	}
	r := m.ring.Load()
	if r.Wrapped() {
		return nil, fmt.Errorf("core: op log wrapped: %d ops recorded into a %d-op ring; raise the capture capacity",
			r.Total(), r.Capacity())
	}
	l := r.Snapshot(label, 0)
	l.Totals = m.Stats().Counters()
	return l, nil
}

// OpRing returns the ring this manager records into.
func (m *Manager) OpRing() *oplog.Ring { return m.ring.Load() }

// FlightLog is this manager's flight dump: its ring's window, marked
// HdrFlight and labelled reason, with a JSON snapshot of the metrics
// registry.
func (m *Manager) FlightLog(reason string) *oplog.Log {
	l := m.ring.Load().Snapshot(reason, oplog.HdrFlight)
	l.Metrics, _ = json.Marshal(metrics.Default().Snapshot())
	return l
}
