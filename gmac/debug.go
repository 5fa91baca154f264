package gmac

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/introspect"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the public face of the observability layer: span tracing,
// whole-runtime snapshots, the text reporter, and the live introspection
// endpoint.

// Tracer records spans (timed Invoke/Sync/fault/transfer operations with
// parent links) plus the instantaneous protocol events, as the ops the
// runtime emitted. WriteText lists the events; WriteJSON exports the run as
// Chrome trace_event JSON.
type Tracer = trace.Tracer

// ObjectSnapshot is one row of a snapshot's per-object table.
type ObjectSnapshot = core.ObjectSnapshot

// EnableTracer installs a tracer retaining the most recent capacity spans
// and events, and returns it. Besides the spans it records every protocol
// action (faults, state transitions, transfers, evictions, API events)
// with virtual timestamps.
func (c *Context) EnableTracer(capacity int) *Tracer {
	t := trace.NewTracer(capacity)
	c.mgr.SetSpanTracer(t)
	return t
}

// Snapshot is a point-in-time view of one context's runtime state: the
// aggregate counters, the Figure 10 breakdown, and the per-object
// attribution table ranked by fault/transfer traffic.
type Snapshot struct {
	Protocol        string                    `json:"protocol"`
	Time            sim.Time                  `json:"time_ns"`
	Stats           Stats                     `json:"stats"`
	RollingCapacity int                       `json:"rolling_capacity,omitempty"`
	RollingLen      int                       `json:"rolling_len,omitempty"`
	Objects         []ObjectSnapshot          `json:"objects"`
	Breakdown       map[sim.Category]sim.Time `json:"breakdown"`
}

// Snapshot captures the context's current state. Every piece is safe to
// read from any goroutine (the Stats counters are atomics, and each object
// row is read under its object's lock), but the pieces are read one after
// another and Time is the calling goroutine's lane clock, so only the
// goroutine driving the context gets a consistent cut.
func (c *Context) Snapshot() Snapshot {
	return Snapshot{
		Protocol:        c.mgr.Protocol().String(),
		Time:            c.m.Elapsed(),
		Stats:           c.mgr.Stats(),
		RollingCapacity: c.mgr.RollingCapacity(),
		RollingLen:      c.mgr.RollingLen(),
		Objects:         c.mgr.SnapshotObjects(),
		Breakdown:       c.m.Breakdown.Map(),
	}
}

// WriteText renders the snapshot as a human-readable report: totals, the
// breakdown, and the object table heaviest-first.
func (s Snapshot) WriteText(w io.Writer) {
	fmt.Fprintf(w, "protocol %s, virtual time %v\n", s.Protocol, s.Time)
	st := s.Stats
	fmt.Fprintf(w, "faults %d (%d read, %d write), evictions %d\n",
		st.Faults, st.ReadFaults, st.WriteFaults, st.Evictions)
	fmt.Fprintf(w, "H2D %d B in %d transfers, D2H %d B in %d transfers\n",
		st.BytesH2D, st.TransfersH2D, st.BytesD2H, st.TransfersD2H)
	fmt.Fprintf(w, "API: %d allocs, %d frees, %d invokes, %d syncs\n",
		st.Allocs, st.Frees, st.Invokes, st.Syncs)
	if s.RollingCapacity > 0 {
		fmt.Fprintf(w, "rolling cache: %d/%d blocks\n", s.RollingLen, s.RollingCapacity)
	}
	if len(s.Objects) > 0 {
		fmt.Fprintf(w, "objects by traffic:\n")
		fmt.Fprintf(w, "  %-14s %10s %8s %8s %12s %12s %6s\n",
			"addr", "size", "blocks", "faults", "H2D bytes", "D2H bytes", "evict")
		for _, o := range s.Objects {
			fmt.Fprintf(w, "  %#-14x %10d %8d %8d %12d %12d %6d\n",
				uint64(o.Addr), o.Size, o.Blocks, o.Stats.Faults,
				o.Stats.BytesH2D, o.Stats.BytesD2H, o.Stats.Evictions)
		}
	}
}

// Metrics returns the process-wide metrics registry the runtime records
// into: fault/transfer counters, latency and size histograms, and
// per-link traffic, aggregated across all contexts.
func Metrics() *metrics.Registry { return metrics.Default() }

// DebugServer is a running live-introspection endpoint.
type DebugServer = introspect.Server

// EnableDebugServer starts the opt-in introspection endpoint on addr
// (":0" picks an ephemeral port; read it back with Addr). It serves
// /adsm/stats, /adsm/objects, /adsm/trace and /adsm/statsz for the most
// recent contexts built in the process while it runs (start it before
// them: nothing retains a context that no endpoint serves), until Close.
func EnableDebugServer(addr string) (*DebugServer, error) {
	return introspect.Start(addr)
}

// EnableAutoTrace makes every context built after the call start with a
// span tracer of the given capacity, so the debug server's /adsm/trace has
// data without each harness opting in. Pass 0 to disable.
func EnableAutoTrace(capacity int) { core.SetAutoTrace(capacity) }
