package repro

// One testing.B benchmark per table/figure of the paper's evaluation.
// Virtual-time results (what the paper's figures plot) are exposed as
// custom benchmark metrics; wall-clock ns/op measures the simulator
// itself. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benches run at reduced scale so a full -bench=. sweep stays
// in CI territory; cmd/gmacbench runs the evaluation-scale versions.

import (
	"fmt"
	"testing"

	"repro/gmac"
	"repro/internal/figures"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/machine"
)

func reportVariant(b *testing.B, rep workloads.Report, prefix string) {
	b.ReportMetric(rep.Time.Seconds()*1e3, prefix+"-vms")
	b.ReportMetric(float64(rep.GMAC.BytesH2D)/1024, prefix+"-h2dKB")
	b.ReportMetric(float64(rep.GMAC.BytesD2H)/1024, prefix+"-d2hKB")
	// Transfer counts, not just bytes: eviction coalescing batches adjacent
	// dirty blocks into single DMA transfers, so the same h2dKB moving in
	// fewer transfers is the optimisation showing up.
	b.ReportMetric(float64(rep.GMAC.TransfersH2D), prefix+"-h2dxfers")
	b.ReportMetric(float64(rep.GMAC.TransfersD2H), prefix+"-d2hxfers")
	if rep.GMAC.Evictions > 0 {
		b.ReportMetric(float64(rep.GMAC.Evictions), prefix+"-evictions")
	}
}

// BenchmarkFig2 regenerates the analytic bandwidth-requirements table.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := figures.Fig2(); len(tab.Rows) != 5 {
			b.Fatal("fig2 incomplete")
		}
	}
}

// BenchmarkTable2 regenerates the benchmark-description table.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := figures.Table2(); len(tab.Rows) != 7 {
			b.Fatal("table2 incomplete")
		}
	}
}

// BenchmarkPorting regenerates the porting-effort analysis.
func BenchmarkPorting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := figures.Porting()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7 {
			b.Fatal("porting incomplete")
		}
	}
}

// benchParboil runs one Parboil benchmark under one variant at test scale
// and reports its virtual time.
func benchParboil(b *testing.B, mk func() workloads.Benchmark, variant workloads.Variant) {
	opt := workloads.Options{BlockSize: 16 << 10}
	opt.Machine = func() *machine.Machine {
		cfg := machine.PaperTestbedConfig()
		cfg.Accelerators[0].MemSize = 128 << 20
		m, err := machine.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	switch variant {
	case workloads.VariantBatch:
		opt.Protocol = gmac.BatchUpdate
	case workloads.VariantLazy:
		opt.Protocol = gmac.LazyUpdate
	case workloads.VariantRolling:
		opt.Protocol = gmac.RollingUpdate
	}
	var last workloads.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rep workloads.Report
		var err error
		if variant == workloads.VariantCUDA {
			rep, err = workloads.RunCUDA(mk(), opt)
		} else {
			rep, err = workloads.RunGMAC(mk(), opt)
		}
		if err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	b.StopTimer()
	reportVariant(b, last, "virt")
}

// BenchmarkFig7 covers the slowdown comparison: every Parboil benchmark
// under the CUDA baseline and the three protocols (Figures 7 and 8 come
// from the same runs; Figure 10 from the rolling breakdowns).
func BenchmarkFig7(b *testing.B) {
	mks := map[string]func() workloads.Benchmark{
		"cp":      func() workloads.Benchmark { return workloads.SmallCP() },
		"mri-fhd": func() workloads.Benchmark { return workloads.SmallMRIFHD() },
		"mri-q":   func() workloads.Benchmark { return workloads.SmallMRIQ() },
		"pns":     func() workloads.Benchmark { return workloads.SmallPNS() },
		"rpes":    func() workloads.Benchmark { return workloads.SmallRPES() },
		"sad":     func() workloads.Benchmark { return workloads.SmallSAD() },
		"tpacf":   func() workloads.Benchmark { return workloads.SmallTPACF() },
	}
	for _, name := range []string{"cp", "mri-fhd", "mri-q", "pns", "rpes", "sad", "tpacf"} {
		mk := mks[name]
		for _, variant := range []workloads.Variant{
			workloads.VariantCUDA, workloads.VariantBatch,
			workloads.VariantLazy, workloads.VariantRolling,
		} {
			b.Run(name+"/"+string(variant), func(b *testing.B) {
				benchParboil(b, mk, variant)
			})
		}
	}
}

// BenchmarkFig8 isolates the transfer-volume comparison on the benchmark
// where it is starkest (pns: batch re-sends everything every step).
func BenchmarkFig8(b *testing.B) {
	for _, variant := range []workloads.Variant{
		workloads.VariantBatch, workloads.VariantLazy, workloads.VariantRolling,
	} {
		b.Run(string(variant), func(b *testing.B) {
			benchParboil(b, func() workloads.Benchmark { return workloads.SmallPNS() }, variant)
		})
	}
}

// BenchmarkFig9 runs the 3D-stencil volume sweep at reduced scale.
func BenchmarkFig9(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		opt   workloads.Options
		block int64
	}{
		{"lazy", workloads.Options{Protocol: gmac.LazyUpdate}, 0},
		{"rolling-4KB", workloads.Options{Protocol: gmac.RollingUpdate, BlockSize: 4 << 10}, 4 << 10},
		{"rolling-256KB", workloads.Options{Protocol: gmac.RollingUpdate, BlockSize: 256 << 10}, 256 << 10},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var last workloads.Report
			for i := 0; i < b.N; i++ {
				rep, err := workloads.RunGMAC(
					&workloads.Stencil3D{N: 48, Iters: 8, OutEvery: 8, SourceElems: 16}, cfg.opt)
				if err != nil {
					b.Fatal(err)
				}
				last = rep
			}
			b.StopTimer()
			reportVariant(b, last, "virt")
		})
	}
}

// BenchmarkFig10 runs one I/O-heavy benchmark under rolling-update and
// reports the breakdown shares the figure plots.
func BenchmarkFig10(b *testing.B) {
	var last workloads.Report
	for i := 0; i < b.N; i++ {
		rep, err := workloads.RunGMAC(workloads.SmallMRIQ(), workloads.Options{
			Protocol: gmac.RollingUpdate, BlockSize: 16 << 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	b.StopTimer()
	b.ReportMetric(100*last.Breakdown.Fraction(sim.CatIORead), "ioread-pct")
	b.ReportMetric(100*last.Breakdown.Fraction(sim.CatSignal), "signal-pct")
	b.ReportMetric(100*last.Breakdown.Fraction(sim.CatGPU), "gpu-pct")
}

// BenchmarkFig11 sweeps three block sizes of the vector-addition
// micro-benchmark and reports the transfer-time metrics.
func BenchmarkFig11(b *testing.B) {
	for _, bs := range []int64{4 << 10, 64 << 10, 1 << 20} {
		bs := bs
		b.Run(humanBlock(bs), func(b *testing.B) {
			var rows []figures.Fig11Row
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = figures.Fig11(256<<10, []int64{bs})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(rows[0].CPUToGPU.Seconds()*1e3, "h2d-vms")
			b.ReportMetric(rows[0].GPUToCPU.Seconds()*1e3, "d2h-vms")
			b.ReportMetric(float64(rows[0].Faults), "faults")
		})
	}
}

// BenchmarkFig12 runs the tpacf rolling-size pathology at reduced scale.
func BenchmarkFig12(b *testing.B) {
	bench := workloads.SmallTPACF()
	bench.Points = 16 << 10
	bench.Sets = 2
	for _, rs := range []int{1, 4} {
		rs := rs
		b.Run("rolling-"+string(rune('0'+rs)), func(b *testing.B) {
			var rows []figures.Fig12Row
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = figures.Fig12(bench, []int64{32 << 10}, []int{rs})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(rows[0].Time.Seconds()*1e3, "virt-vms")
			b.ReportMetric(float64(rows[0].BytesH2D)/1024, "h2dKB")
		})
	}
}

func humanBlock(n int64) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dMB", n>>20)
	}
	return fmt.Sprintf("%dKB", n>>10)
}

// BenchmarkAblationAnnotations measures the §4.3 write-set annotation
// extension.
func BenchmarkAblationAnnotations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.AblationAnnotations(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPeerDMA measures the §7 peer-DMA extension on mri-q.
func BenchmarkAblationPeerDMA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.AblationPeerDMA(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationVirtualMemory measures the §4.2 device-MMU extension.
func BenchmarkAblationVirtualMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.AblationVirtualMemory(); err != nil {
			b.Fatal(err)
		}
	}
}
