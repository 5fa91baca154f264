// Op-stream recording: the manager's side of internal/oplog.
//
// Every manager records unconditionally into the process-wide flight
// recorder (oplog.Flight) — the always-on black box — and optionally into a
// per-manager capture ring installed with SetRecorder, sized to hold a
// whole run for the record/replay workflow (cmd/adsmtrace -record,
// gmacbench -record, the replay conformance tests).
//
// The record path (emit, event.go) runs inside the fault handler and the
// host-access fast paths, so it is allocation-free: an op is a plain value,
// the rings store it with atomic word writes, and all string context is
// interned ahead of time (oplog.NoteID) on cold paths.

package core

import (
	"bytes"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/oplog"
)

func init() {
	// Flight dumps carry a metrics snapshot; installed here (not in oplog)
	// to keep oplog free of a metrics dependency.
	oplog.SetMetricsSnapshot(func() []byte {
		var buf bytes.Buffer
		if err := metrics.Default().WriteJSON(&buf); err != nil {
			return nil
		}
		return buf.Bytes()
	})
}

// SetRecorder installs (or removes, with nil) a capture ring receiving
// every op this manager emits. The caller sizes the ring to the expected
// run length; FinishOpLog fails if it wrapped.
func (m *Manager) SetRecorder(r *oplog.Ring) {
	if r != nil {
		r.SetHeader(m.OpLogHeader())
		oplog.Flight().SetHeader(m.OpLogHeader())
	}
	m.rec.Store(r)
}

// Recorder returns the installed capture ring, or nil.
func (m *Manager) Recorder() *oplog.Ring { return m.rec.Load() }

// EnableRecorder installs a fresh capture ring of the given capacity
// (DefaultRingCapacity if <= 0) and returns it.
func (m *Manager) EnableRecorder(capacity int) *oplog.Ring {
	r := oplog.NewRing(capacity)
	m.SetRecorder(r)
	return r
}

// OpLogHeader describes this manager's configuration for a recorded
// stream's header.
func (m *Manager) OpLogHeader() oplog.Header {
	h := oplog.Header{
		Protocol:     int32(m.cfg.Protocol),
		BlockSize:    m.cfg.BlockSize,
		RollingDelta: int32(m.cfg.RollingDelta),
		FixedRolling: int32(m.cfg.FixedRolling),
		MaxRetries:   int32(m.cfg.MaxRetries),
	}
	if m.cfg.RaceDetect {
		h.Flags |= oplog.HdrRaceDetect
	}
	if m.cfg.DisableFaultBatching {
		h.Flags |= oplog.HdrNoFaultBatch
	}
	return h
}

// FinishOpLog detaches the capture ring and packages its contents as a
// complete Log with this manager's final counter totals. It fails if no
// recorder was installed or if the ring wrapped (the stream would be
// incomplete — record again with a larger capacity).
func (m *Manager) FinishOpLog(label string) (*oplog.Log, error) {
	r := m.rec.Swap(nil)
	if r == nil {
		return nil, fmt.Errorf("core: no recorder installed")
	}
	if r.Wrapped() {
		return nil, fmt.Errorf("core: op log wrapped: %d ops recorded into a %d-op ring; raise the capture capacity",
			r.Total(), r.Capacity())
	}
	if c := r.Collisions(); c != 0 {
		return nil, fmt.Errorf("core: op log dropped %d ops to write collisions", c)
	}
	l := r.Snapshot()
	l.Header.Label = label
	l.Totals = m.Stats().Counters()
	return l, nil
}
