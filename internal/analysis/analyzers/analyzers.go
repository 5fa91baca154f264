// Package analyzers enumerates the full adsmvet suite in one place, so
// cmd/adsmvet and the tests agree on the set.
package analyzers

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/noalloc"
	"repro/internal/analysis/statecase"
)

// All returns the adsmvet analyzer suite in stable order. AllowCheck is
// the driver-side pseudo-analyzer auditing //adsm:allow directives
// (missing reasons, stale suppressions); it rides along so its flag and
// JSON identity exist like any other analyzer's.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		analysis.AllowCheck,
		lockorder.Analyzer,
		noalloc.Analyzer,
		statecase.Analyzer,
	}
}

// Validate checks the suite is well-formed: unique names (they become
// command-line flags, so a collision would shadow an analyzer) and
// non-empty docs.
func Validate() error {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			return fmt.Errorf("analyzer %q is incomplete", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("duplicate analyzer name %q (flag collision)", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}
