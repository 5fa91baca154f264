package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s differs (rerun with -update if the change is intentional):\n--- golden\n%s--- current\n%s",
			path, want, got)
	}
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
