package figures

import (
	"strings"
	"testing"

	"repro/internal/workloads"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "t", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "n")
	s := tab.String()
	for _, want := range []string{"== t ==", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	tab := Fig2()
	if len(tab.Rows) != 5 {
		t.Fatalf("Fig2 has %d rows, want 5 NPB kernels", len(tab.Rows))
	}
	// The qualitative claim: every kernel sustains far higher IPC on GPU
	// memory than on PCIe. Column layout: name, B/instr, BW@10, BW@100,
	// then one maxIPC column per link (PCIe first, GDDR last).
	for _, row := range tab.Rows {
		pcie := row[4]
		gddr := row[len(row)-1]
		if pcie >= gddr && len(pcie) >= len(gddr) {
			t.Fatalf("%s: PCIe IPC %s not clearly below GDDR IPC %s", row[0], pcie, gddr)
		}
	}
}

func TestTable2(t *testing.T) {
	tab := Table2()
	if len(tab.Rows) != 7 {
		t.Fatalf("Table2 rows = %d", len(tab.Rows))
	}
}

func TestEvaluationSmallScale(t *testing.T) {
	runs, err := RunEvaluation(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 7 {
		t.Fatalf("%d evaluation runs", len(runs))
	}
	fig7 := Fig7(runs)
	fig8 := Fig8(runs)
	fig10 := Fig10(runs)
	if len(fig7.Rows) != 7 || len(fig8.Rows) != 7 || len(fig10.Rows) != 7 {
		t.Fatal("figure tables incomplete")
	}
	// Figure 7 property: batch slowdown >= lazy and rolling slowdowns for
	// the iterative benchmarks.
	for _, run := range runs {
		batch := run.Reports[workloads.VariantBatch]
		lazy := run.Reports[workloads.VariantLazy]
		rolling := run.Reports[workloads.VariantRolling]
		if batch.GMAC.BytesH2D < lazy.GMAC.BytesH2D {
			t.Errorf("%s: batch H2D %d below lazy %d", run.Benchmark,
				batch.GMAC.BytesH2D, lazy.GMAC.BytesH2D)
		}
		if batch.GMAC.BytesD2H < rolling.GMAC.BytesD2H {
			t.Errorf("%s: batch D2H %d below rolling %d", run.Benchmark,
				batch.GMAC.BytesD2H, rolling.GMAC.BytesD2H)
		}
	}
	// Figure 10 property: breakdown fractions sum to ~100%.
	for _, run := range runs {
		r := run.Reports[workloads.VariantRolling]
		if r.Breakdown.Total() <= 0 {
			t.Errorf("%s: empty breakdown", run.Benchmark)
		}
	}
}

func TestFig9SmallScale(t *testing.T) {
	blocks := []int64{4 << 10, 64 << 10}
	rows, err := Fig9Rows([]int64{16, 24}, blocks)
	if err != nil {
		t.Fatal(err)
	}
	tab := Fig9TableFrom(rows, blocks)
	if len(tab.Rows) != 2 || len(tab.Columns) != 4 {
		t.Fatalf("fig9 table shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
}

func TestFig11SmallScale(t *testing.T) {
	rows, err := Fig11(128<<10, []int64{4 << 10, 64 << 10, 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("fig11 rows = %d", len(rows))
	}
	// Bandwidth grows with block size; fault count falls.
	if rows[0].BWH2D >= rows[2].BWH2D {
		t.Fatal("effective bandwidth did not grow with block size")
	}
	if rows[0].Faults <= rows[2].Faults {
		t.Fatalf("faults did not fall with block size: %d vs %d", rows[0].Faults, rows[2].Faults)
	}
	Fig11Table(rows) // must render
}

func TestFig12SmallScale(t *testing.T) {
	bench := workloads.SmallTPACF()
	bench.Points = 16 << 10 // 192KB sets, streams 64KB apart
	rows, err := Fig12(bench, []int64{16 << 10, 64 << 10, 256 << 10}, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("fig12 rows = %d", len(rows))
	}
	// Thrash property: with rolling size 1 and small blocks, H2D exceeds
	// the one-copy-per-set minimum; once a set fits in one block it drops.
	small := rows[0] // rs=1, bs=16KB
	big := rows[2]   // rs=1, bs=256KB (whole set >= one block)
	if small.BytesH2D <= big.BytesH2D {
		t.Fatalf("no thrash visible: H2D %d (small blocks) vs %d (big blocks)",
			small.BytesH2D, big.BytesH2D)
	}
	Fig12Table(rows) // must render
}

func TestPorting(t *testing.T) {
	rows, err := Porting()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("porting rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's claim, measured on our own sources: the ADSM version
		// needs strictly fewer explicit data-management operations.
		if r.GMACMgmtOps >= r.CUDAMgmtOps {
			t.Errorf("%s: GMAC mgmt ops %d not below CUDA %d",
				r.Benchmark, r.GMACMgmtOps, r.CUDAMgmtOps)
		}
	}
	PortingTable(rows)
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation-scale ablations")
	}
	ann, err := AblationAnnotations()
	if err != nil {
		t.Fatal(err)
	}
	if len(ann.Rows) != 3 {
		t.Fatalf("annotation ablation rows = %d", len(ann.Rows))
	}
	peer, err := AblationPeerDMA()
	if err != nil {
		t.Fatal(err)
	}
	if peer.Rows[1][2] != "0B" {
		t.Fatalf("peer DMA still staged H2D: %v", peer.Rows[1])
	}
	vm, err := AblationVirtualMemory()
	if err != nil {
		t.Fatal(err)
	}
	if vm.Rows[0][1] != "0" || vm.Rows[1][1] != "8" {
		t.Fatalf("VM ablation rows unexpected: %v", vm.Rows)
	}
}

func TestPlotRendering(t *testing.T) {
	p := &Plot{
		Title:  "test",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Label: "a", X: []float64{1, 2, 3}, Y: []float64{1, 4, 9}},
			{Label: "b", X: []float64{1, 2, 3}, Y: []float64{9, 4, 1}},
		},
	}
	out := p.Render()
	for _, want := range []string{"== test ==", "*", "o", "a", "b", "x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	// Log axes.
	p.LogX, p.LogY = true, true
	if out := p.Render(); !strings.Contains(out, "*") {
		t.Fatalf("log plot lost data:\n%s", out)
	}
}

func TestPlotEmpty(t *testing.T) {
	p := &Plot{Title: "empty"}
	if out := p.Render(); !strings.Contains(out, "no data") {
		t.Fatalf("empty plot: %q", out)
	}
}

func TestPlotConstantSeries(t *testing.T) {
	p := &Plot{Title: "flat", Series: []Series{{Label: "c", X: []float64{5}, Y: []float64{2}}}}
	if out := p.Render(); !strings.Contains(out, "*") {
		t.Fatalf("single-point plot lost the point:\n%s", out)
	}
}

func TestFigurePlots(t *testing.T) {
	if out := Fig2Plot().Render(); !strings.Contains(out, "ceiling") {
		t.Fatal("fig2 plot missing ceilings")
	}
	rows, err := Fig11(64<<10, []int64{4 << 10, 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if out := Fig11Plot(rows).Render(); !strings.Contains(out, "CPU->GPU") {
		t.Fatal("fig11 plot missing series")
	}
	bench := workloads.SmallTPACF()
	r12, err := Fig12(bench, []int64{16 << 10, 64 << 10}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if out := Fig12Plot(r12).Render(); !strings.Contains(out, "tpacf-1") {
		t.Fatal("fig12 plot missing series")
	}
}
