package figures

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// The golden-figure suite pins the rendered output of every figure at the
// small scale. The sweeps run through the exact parameters cmd/gmacbench
// uses (Fig9Params/Fig11Params/Fig12Params), so a golden mismatch means the
// CLI output changed too. Regenerate after an intentional model change with
//
//	go test ./internal/figures -run TestGolden -update
//
// and review the diff like any other code change: the goldens are the
// repo's record of what the simulation computes.
var update = flag.Bool("update", false, "rewrite the golden figure files in testdata/")

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
	if got == string(want) {
		return
	}
	// Point at the first diverging line so the failure is readable without
	// an external diff tool.
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n  golden:  %q\n  current: %q\n(rerun with -update if the change is intentional)",
				path, i+1, w, g)
		}
	}
	t.Fatalf("%s differs (same lines, different whitespace?)", path)
}

func TestGoldenStaticTables(t *testing.T) {
	checkGolden(t, "fig2", Fig2().String())
	checkGolden(t, "table2", Table2().String())
}

func TestGoldenEvaluation(t *testing.T) {
	runs, err := RunEvaluation(true)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7", Fig7(runs).String())
	checkGolden(t, "fig8", Fig8(runs).String())
	checkGolden(t, "fig10", Fig10(runs).String())

	// Pin the raw counters behind the tables as well: the tables round to a
	// few digits, the counters catch any drift the rounding would hide.
	var sb strings.Builder
	for _, e := range evalEntryLines(runs) {
		sb.WriteString(e)
		sb.WriteByte('\n')
	}
	checkGolden(t, "eval_counters", sb.String())
}

var variantOrder = []workloads.Variant{
	workloads.VariantCUDA, workloads.VariantBatch,
	workloads.VariantLazy, workloads.VariantRolling,
}

// evalEntryLines flattens the evaluation runs into one deterministic line
// per workload/variant.
func evalEntryLines(runs []EvalRun) []string {
	var out []string
	for _, r := range runs {
		for _, v := range variantOrder {
			rep, ok := r.Reports[v]
			if !ok {
				continue
			}
			// The device's own byte counts: the CUDA variant has no GMAC stats.
			out = append(out, fmt.Sprintf(
				"%s/%s time_ns=%d h2d=%d d2h=%d xfers_h2d=%d xfers_d2h=%d faults=%d evictions=%d checksum=%g"+
					" dev_h2d=%d dev_d2h=%d retries=%d retry_giveups=%d degraded=%d",
				r.Benchmark, v, int64(rep.Time), rep.GMAC.BytesH2D, rep.GMAC.BytesD2H,
				rep.GMAC.TransfersH2D, rep.GMAC.TransfersD2H,
				rep.GMAC.Faults, rep.GMAC.Evictions, rep.Checksum,
				rep.Dev.BytesH2D, rep.Dev.BytesD2H,
				rep.GMAC.Retries, rep.GMAC.RetryGiveups, rep.GMAC.DegradedObjects))
		}
	}
	return out
}

func TestGoldenFig9(t *testing.T) {
	sizes, blocks := Fig9Params(true)
	rows, err := Fig9Rows(sizes, blocks)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig9", Fig9TableFrom(rows, blocks).String())
}

func TestGoldenFig11(t *testing.T) {
	n, blocks := Fig11Params(true)
	rows, err := Fig11(n, blocks)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig11", Fig11Table(rows).String())
}

func TestGoldenModes(t *testing.T) {
	rows, err := ModesRows(true)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "modes", ModesTable(rows).String())
}

func TestGoldenFig12(t *testing.T) {
	bench, blocks, sizes := Fig12Params(true)
	rows, err := Fig12(bench, blocks, sizes)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig12", Fig12Table(rows).String())
}
