package figures

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/machine"
)

// EvalRun holds all four variant reports for one Parboil benchmark. One
// evaluation sweep feeds Figures 7, 8 and 10.
type EvalRun struct {
	Benchmark string
	Reports   map[workloads.Variant]workloads.Report
}

// RunEvaluation executes the Parboil suite under the CUDA baseline and all
// three GMAC protocols. small selects the unit-test scale.
func RunEvaluation(small bool) ([]EvalRun, error) {
	suite := workloads.Parboil()
	opt := workloads.Options{}
	if small {
		suite = workloads.ParboilSmall()
		opt.BlockSize = 16 << 10
		opt.Machine = func() *machine.Machine {
			cfg := machine.PaperTestbedConfig()
			cfg.Accelerators[0].MemSize = 128 << 20
			m, err := machine.New(cfg)
			if err != nil {
				panic(err)
			}
			return m
		}
	}
	var runs []EvalRun
	for _, b := range suite {
		reports, err := workloads.RunAllVariants(b, opt)
		if err != nil {
			return nil, fmt.Errorf("evaluation of %s: %w", b.Name(), err)
		}
		// Cross-variant verification: the evaluation is only meaningful if
		// every variant computed the same result.
		want := reports[workloads.VariantCUDA].Checksum
		for v, r := range reports {
			if r.Checksum != want {
				return nil, fmt.Errorf("%s/%s checksum %v diverges from cuda %v",
					b.Name(), v, r.Checksum, want)
			}
		}
		runs = append(runs, EvalRun{Benchmark: b.Name(), Reports: reports})
	}
	return runs, nil
}

// Fig7 reports the slowdown of each GMAC protocol with respect to the CUDA
// baseline (Figure 7: batch up to 65.18x on pns and 18.61x on rpes;
// lazy/rolling at parity).
func Fig7(runs []EvalRun) *Table {
	t := &Table{
		Title:   "Figure 7: slowdown of GMAC protocols vs CUDA baseline",
		Columns: []string{"benchmark", "batch", "lazy", "rolling"},
		Notes: []string{
			"paper: batch reaches 65.18x (pns) and 18.61x (rpes); lazy and rolling are at parity with CUDA",
		},
	}
	for _, run := range runs {
		cuda := run.Reports[workloads.VariantCUDA].Time
		slow := func(v workloads.Variant) string {
			return f("%.2f", float64(run.Reports[v].Time)/float64(cuda))
		}
		t.AddRow(run.Benchmark,
			slow(workloads.VariantBatch),
			slow(workloads.VariantLazy),
			slow(workloads.VariantRolling))
	}
	return t
}

// Fig8 reports the data transferred by lazy- and rolling-update in each
// direction, normalised to batch-update (Figure 8).
func Fig8(runs []EvalRun) *Table {
	t := &Table{
		Title:   "Figure 8: data transferred, normalised to batch-update",
		Columns: []string{"benchmark", "lazy H2D", "lazy D2H", "rolling H2D", "rolling D2H"},
		Notes: []string{
			"paper: both protocols move well under half of batch's traffic in every benchmark",
		},
	}
	for _, run := range runs {
		batch := run.Reports[workloads.VariantBatch].GMAC
		norm := func(v workloads.Variant, h2d bool) string {
			s := run.Reports[v].GMAC
			if h2d {
				return f("%.3f", ratio(s.BytesH2D, batch.BytesH2D))
			}
			return f("%.3f", ratio(s.BytesD2H, batch.BytesD2H))
		}
		t.AddRow(run.Benchmark,
			norm(workloads.VariantLazy, true), norm(workloads.VariantLazy, false),
			norm(workloads.VariantRolling, true), norm(workloads.VariantRolling, false))
	}
	return t
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Fig10 reports the execution-time breakdown of the rolling-update runs
// across the paper's thirteen categories, in percent.
func Fig10(runs []EvalRun) *Table {
	cats := sim.Categories()
	cols := []string{"benchmark"}
	for _, c := range cats {
		cols = append(cols, c.String())
	}
	t := &Table{
		Title:   "Figure 10: execution-time breakdown (%) under rolling-update",
		Columns: cols,
		Notes: []string{
			"paper: GPU and CPU computation dominate; Signal overhead always below 2%; mri benchmarks show heavy IORead",
		},
	}
	for _, run := range runs {
		r := run.Reports[workloads.VariantRolling]
		row := []string{run.Benchmark}
		for _, c := range cats {
			row = append(row, f("%.1f", 100*r.Breakdown.Fraction(c)))
		}
		t.AddRow(row...)
	}
	return t
}

// Table2 reproduces the benchmark-description table.
func Table2() *Table {
	t := &Table{
		Title:   "Table 2: Parboil benchmark descriptions",
		Columns: []string{"benchmark", "description"},
	}
	for _, b := range workloads.Parboil() {
		t.AddRow(b.Name(), b.Description())
	}
	return t
}
