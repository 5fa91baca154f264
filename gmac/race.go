package gmac

import (
	"repro/internal/racecheck"
)

// This file is the public face of the race-detection layer
// (internal/racecheck): a vector-clock happens-before checker over the
// runtime's coherence events. Enable it online with Config.RaceDetect, or
// run it offline over any recorded op stream with AnalyzeRaces (the
// adsmtrace -races command). See docs/race-detection.md for the model.

// Race is one detected data race: two accesses to the same coherence
// block, at least one a write, unordered by any happens-before edge
// (program order, kernel launch, Sync).
type Race = racecheck.Race

// RaceSite is one of the two access sites of a race.
type RaceSite = racecheck.Site

// RaceReport is an offline race analysis over one op stream.
type RaceReport = racecheck.Report

// AnalyzeRaces runs the offline race detector over a recorded stream. It
// is deterministic: the same stream always yields the same report, and a
// stream recorded with online detection enabled yields exactly the races
// the online detector found.
func AnalyzeRaces(l *OpLog) *RaceReport { return racecheck.Analyze(l) }

// Races returns the races the online detector has found so far (nil when
// Config.RaceDetect is off).
func (c *Context) Races() []Race { return c.mgr.Races() }

// Races returns the online detector's races across every device's manager.
func (mc *MultiContext) Races() []Race {
	var out []Race
	for _, mgr := range mc.mgrs {
		out = append(out, mgr.Races()...)
	}
	return out
}
