package racecheck

import (
	"fmt"
	"io"

	"repro/internal/oplog"
	"repro/internal/sim"
)

// Site is one of the two access sites of a race — enough to find the op in
// the stream (OpIndex, virtual time) and to understand the access (kind,
// lane or kernel, address range).
type Site struct {
	// Op is the access kind: an op-kind name ("host-write", "bulk-read",
	// ...) for host accesses, "kernel-write"/"kernel-read" for declared
	// kernel footprint entries.
	Op string `json:"op"`
	// Lane is the host lane that performed (or launched) the access.
	Lane uint32 `json:"lane"`
	// Kernel names the kernel for footprint sites ("" for host accesses).
	Kernel string `json:"kernel,omitempty"`
	// Obj is the object's stable sequence number; Addr/Size the accessed
	// range in the recorded run's address space.
	Obj  uint32 `json:"obj"`
	Addr uint64 `json:"addr"`
	Size int64  `json:"size"`
	// At is the op's virtual timestamp; OpIndex its 1-based position in
	// the fed stream.
	At      sim.Time `json:"at_ns"`
	OpIndex uint64   `json:"op_index"`
}

func (s Site) String() string {
	who := fmt.Sprintf("lane %d", s.Lane)
	if s.Kernel != "" {
		who = fmt.Sprintf("kernel %q (lane %d)", s.Kernel, s.Lane)
	}
	return fmt.Sprintf("%-12s %s obj%d [%#x,+%d) at %v (op %d)",
		s.Op, who, s.Obj, s.Addr, s.Size, s.At, s.OpIndex)
}

// Race is one detected race: two accesses to the same coherence block, at
// least one a write, not ordered by any happens-before edge.
type Race struct {
	// Kind is "write-write", "write-read" (prior write, racing read) or
	// "read-write" (prior read, racing write).
	Kind string `json:"kind"`
	// Obj is the object and Addr the base of the conflicting coherence
	// block (the first one, for multi-block accesses).
	Obj  uint32 `json:"obj"`
	Addr uint64 `json:"addr"`
	// Prior is the earlier access in stream order; Access the one that
	// completed the race.
	Prior  Site `json:"prior"`
	Access Site `json:"access"`
}

func (r Race) String() string {
	return fmt.Sprintf("%s on obj%d block %#x\n  prior:  %s\n  racing: %s",
		r.Kind, r.Obj, r.Addr, r.Prior, r.Access)
}

// Report is the result of one analysis.
type Report struct {
	// Label is the stream's header label; Ops the number of ops fed.
	Label string `json:"label,omitempty"`
	Ops   int    `json:"ops"`
	// Count is the total number of races (Races is bounded; Count is not).
	Count int64  `json:"count"`
	Races []Race `json:"races"`
}

// Analyze runs the detector over a decoded stream and returns its report
// (gmac.AnalyzeRaces, adsmtrace -races). Deterministic: the same stream
// always yields the same report.
func Analyze(l *oplog.Log) *Report {
	d := New(l.Header)
	for _, op := range l.Ops {
		d.Feed(op)
	}
	return &Report{
		Label: l.Header.Label,
		Ops:   len(l.Ops),
		Count: d.Count(),
		Races: d.Races(),
	}
}

// WriteText renders the report for humans: one block per race with both
// unordered access sites.
func (r *Report) WriteText(w io.Writer) error {
	if r.Count == 0 {
		_, err := fmt.Fprintf(w, "%s: no races in %d ops\n", r.name(), r.Ops)
		return err
	}
	if _, err := fmt.Fprintf(w, "%s: %d race(s) in %d ops\n", r.name(), r.Count, r.Ops); err != nil {
		return err
	}
	for i, race := range r.Races {
		if _, err := fmt.Fprintf(w, "race #%d: %s\n", i+1, race); err != nil {
			return err
		}
	}
	if int64(len(r.Races)) < r.Count {
		if _, err := fmt.Fprintf(w, "(%d further races elided)\n",
			r.Count-int64(len(r.Races))); err != nil {
			return err
		}
	}
	return nil
}

func (r *Report) name() string {
	if r.Label != "" {
		return r.Label
	}
	return "oplog"
}
