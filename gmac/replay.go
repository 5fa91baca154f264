package gmac

import (
	"repro/internal/core"
	"repro/internal/oplog"
)

// This file is the public face of the op-stream layer (internal/oplog):
// recording a session's complete operation stream and replaying a recorded
// stream against a fresh session. The always-on flight recorder needs no
// enabling — every manager feeds it; see oplog.Flight and the
// /adsm/flight-dump introspection endpoint.

// OpLog is a recorded op stream: configuration header, ops, and the
// recorded run's final counter totals.
type OpLog = oplog.Log

// OpLogHeader describes the configuration a stream was recorded under.
type OpLogHeader = oplog.Header

// Header flags (OpLogHeader.Flags).
const (
	// HdrFlight marks a flight-recorder dump: a bounded window of the most
	// recent ops rather than a complete capture — replay it leniently.
	HdrFlight = oplog.HdrFlight
	// HdrNoFaultBatch marks a stream recorded with span-fault batching
	// disabled; ReplayConfig disables it again so fault and transfer
	// counters reproduce.
	HdrNoFaultBatch = oplog.HdrNoFaultBatch
)

// DecodeOpLog parses a stream serialised with OpLog.Encode (an .oplog
// file). It never panics on corrupt input.
func DecodeOpLog(data []byte) (*OpLog, error) { return oplog.Decode(data) }

// EnableRecorder starts capturing this context's op stream into a ring of
// the given capacity (the default capacity if <= 0). The ring must hold
// the whole run: FinishOpLog fails if it wrapped. Recording is
// allocation-free and adds one mutex-guarded ring write per operation.
func (c *Context) EnableRecorder(capacity int) { c.mgr.EnableRecorder(capacity) }

// FinishOpLog stops capturing and returns the recorded stream, labelled
// and carrying the session's final counter totals for replay conformance
// checks.
func (c *Context) FinishOpLog(label string) (*OpLog, error) {
	return c.mgr.FinishOpLog(label)
}

// ReplayConfig derives the Config a replaying session must use from a
// recorded stream's header.
func ReplayConfig(h OpLogHeader) Config {
	return Config{
		Protocol:             Protocol(h.Protocol),
		BlockSize:            h.BlockSize,
		FixedRolling:         int(h.FixedRolling),
		MaxRetries:           int(h.MaxRetries),
		DisableFaultBatching: h.Flags&HdrNoFaultBatch != 0,
	}
}

// ReplayOptions configures Replay; see core.ReplayOptions.
type ReplayOptions = core.ReplayOptions

// ReplayReport summarises one replay.
type ReplayReport = core.ReplayReport

// Replay re-executes a recorded stream's input operations against this
// context. The context should be freshly built with ReplayConfig(l.Header)
// on a comparable machine; kernels the stream names that are not
// registered are stubbed with zero-cost bodies. After a strict replay of a
// capture log, the context's Stats().Counters() match the recorded
// l.Totals — core.CompareTotals asserts it.
func (c *Context) Replay(l *OpLog, opt ReplayOptions) (ReplayReport, error) {
	return c.mgr.Replay(l, opt)
}

// CompareTotals diffs recorded against replayed counter totals, reporting
// every divergence.
func CompareTotals(recorded, replayed map[string]int64) error {
	return core.CompareTotals(recorded, replayed)
}
