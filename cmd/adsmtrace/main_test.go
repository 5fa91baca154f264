package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/gmac"
	"repro/internal/testutil"
)

// The golden tests pin what -races and -replay print for one committed
// corpus stream. Regenerate after an intentional change with
//
//	go test ./cmd/adsmtrace -update
//
// which rewrites testdata/*.golden here, never the corpus itself.
var update = flag.Bool("update", false, "rewrite the golden output files in testdata/")

// stream is the committed corpus capture both modes read.
const stream = "../../testdata/corpus/cp-gmac-rolling.oplog"

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	testutil.CheckGolden(t, *update, filepath.Join("testdata", name+".golden"), got)
}

func TestRacesGolden(t *testing.T) {
	var out strings.Builder
	n, err := races(&out, stream, "")
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("%d race(s) in a single-threaded capture", n)
	}
	checkGolden(t, "races", out.String())
}

func TestReplayGolden(t *testing.T) {
	var out strings.Builder
	if err := replay(&out, stream); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "replay", out.String())
}

// TestDemoGolden pins the demo's event listing and its Chrome trace JSON
// for each protocol. -report is left out: it prints the process-wide
// metrics registry, which accumulates across the tests of this binary.
func TestDemoGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto gmac.Protocol
	}{{"batch", gmac.BatchUpdate}, {"lazy", gmac.LazyUpdate}, {"rolling", gmac.RollingUpdate}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jsonPath := filepath.Join(dir, "trace.json")
			var out strings.Builder
			err := demo(&out, demoConfig{proto: tc.proto, blockSize: 16 << 10, rolling: 2, traceJSON: jsonPath})
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "demo-"+tc.name, strings.ReplaceAll(out.String(), dir, "TMPDIR"))
			checkGolden(t, "demo-"+tc.name+"-json", string(data))
		})
	}
}
