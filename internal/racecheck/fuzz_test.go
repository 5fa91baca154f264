package racecheck_test

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/gmac"
)

// FuzzRaceCheck feeds arbitrary byte streams through the oplog decoder into
// the analyser, seeded from the recorded workload corpus and the
// committed conflict fixtures (streams that actually race). Any input that
// decodes must analyse without panicking, and analysing the same stream
// twice must yield identical verdicts.
func FuzzRaceCheck(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.oplog"))
	if err != nil {
		f.Fatal(err)
	}
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.oplog"))
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, fixtures...)
	sort.Strings(seeds)
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := gmac.DecodeOpLog(data)
		if err != nil {
			return
		}
		a := gmac.AnalyzeRaces(l)
		b := gmac.AnalyzeRaces(l)
		if a.Count != b.Count || !reflect.DeepEqual(a.Races, b.Races) {
			t.Fatalf("nondeterministic verdicts on the same stream: %d vs %d races",
				a.Count, b.Count)
		}
	})
}
