package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// The golden test pins what `gmacbench -small -json FILE fig8` prints and
// writes: the Figure 8 table and the summary's virtual times, counters and
// checksums, all of them deterministic. Regenerate after an intentional
// change with
//
//	go test ./cmd/gmacbench -update
var update = flag.Bool("update", false, "rewrite the golden output files in testdata/")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	testutil.CheckGolden(t, *update, filepath.Join("testdata", name+".golden"), got)
}

func TestSmallFig8Golden(t *testing.T) {
	jsonOut := filepath.Join(t.TempDir(), "summary.json")
	var out strings.Builder
	if err := run(&out, map[string]bool{"fig8": true}, true, jsonOut); err != nil {
		t.Fatal(err)
	}
	summary, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig8", out.String())
	checkGolden(t, "fig8_json", string(summary))
}

func TestUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run(&out, map[string]bool{"fig99": true}, true, ""); err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("run(fig99) = %v, want an unknown-experiment error", err)
	}
}
