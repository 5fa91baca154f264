package gmac

import (
	"repro/internal/racecheck"
)

// This file is the public face of the race-detection layer
// (internal/racecheck): a vector-clock happens-before checker over the
// runtime's coherence events. It runs over a recorded op stream: record a
// session (EnableRecorder, FinishOpLog) and pass the stream to
// AnalyzeRaces, or run `adsmtrace -races` on .oplog files. See
// docs/race-detection.md for the model.

// RaceReport is a race analysis over one op stream: its Races are the
// detected data races, each two accesses to the same coherence block, at
// least one a write, unordered by any happens-before edge (program order,
// kernel launch, Sync).
type RaceReport = racecheck.Report

// AnalyzeRaces runs the race detector over a recorded stream. It is
// deterministic: the same stream always yields the same report.
func AnalyzeRaces(l *OpLog) *RaceReport { return racecheck.Analyze(l) }
