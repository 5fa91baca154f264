package main

import (
	"repro/gmac"
	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/hostmmu"
	"repro/internal/oplog"
	"repro/internal/sim"
	"repro/machine"
)

// snapshot is every public counter of one machine (and the runtime on it,
// if any) at one instant. The program under test is not touched: these are
// the Stats()/Breakdown values any experiment harness can read.
type snapshot struct {
	core     core.Stats
	dev      accel.Stats
	mmu      hostmmu.Stats
	bd       map[sim.Category]sim.Time
	virt     sim.Time
	flight   uint64
	rebuilds int64
}

func snap(m *machine.Machine, ctx *gmac.Context) snapshot {
	s := snapshot{
		dev:    m.Device().Stats(),
		mmu:    m.MMU.Stats(),
		bd:     m.Breakdown.Map(),
		virt:   m.Elapsed(),
		flight: oplog.Flight().Total(),
	}
	if ctx != nil {
		s.core = ctx.Stats()
		s.rebuilds = ctx.Manager().IndexRebuilds()
	}
	return s
}

// tally accumulates snapshot deltas: over the measured region of a run,
// summed across machines where a workload builds several.
type tally struct {
	core     core.Stats
	dev      accel.Stats
	mmu      hostmmu.Stats
	bd       map[sim.Category]sim.Time
	virt     sim.Time
	flight   uint64
	rebuilds int64
}

func (t *tally) add(before, after snapshot) {
	t.core = t.core.Add(after.core.Sub(before.core))
	t.dev.BytesH2D += after.dev.BytesH2D - before.dev.BytesH2D
	t.dev.BytesD2H += after.dev.BytesD2H - before.dev.BytesD2H
	t.dev.CopiesH2D += after.dev.CopiesH2D - before.dev.CopiesH2D
	t.dev.CopiesD2H += after.dev.CopiesD2H - before.dev.CopiesD2H
	t.dev.Launches += after.dev.Launches - before.dev.Launches
	t.dev.KernelTime += after.dev.KernelTime - before.dev.KernelTime
	t.mmu.Faults += after.mmu.Faults - before.mmu.Faults
	t.mmu.Mprotects += after.mmu.Mprotects - before.mmu.Mprotects
	if t.bd == nil {
		t.bd = map[sim.Category]sim.Time{}
	}
	for cat, v := range after.bd {
		t.bd[cat] += v - before.bd[cat]
	}
	t.virt += after.virt - before.virt
	t.flight += after.flight - before.flight
	t.rebuilds += after.rebuilds - before.rebuilds
}

// pcieBytes is the interconnect traffic of the tallied region.
func (t *tally) pcieBytes() int64 { return t.dev.BytesH2D + t.dev.BytesD2H }

// ratio is a/b, 0 when b is 0 (a ratio of nothing).
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerCounts renders the tally under the per-layer metric names of
// BENCHMARK.json.
func (t *tally) layerCounts(out map[string]float64) {
	c := t.core
	out["core.faults"] = float64(c.Faults)
	out["core.read_faults"] = float64(c.ReadFaults)
	out["core.write_faults"] = float64(c.WriteFaults)
	out["core.evictions"] = float64(c.Evictions)
	out["core.fault_batches"] = float64(c.FaultBatches)
	out["core.prefetched_blocks"] = float64(c.PrefetchedBlocks)
	out["core.evict_coalesce_ratio"] = ratio(c.Evictions, c.TransfersH2D)
	out["core.transfers_h2d"] = float64(c.TransfersH2D)
	out["core.transfers_d2h"] = float64(c.TransfersD2H)
	out["core.allocs"] = float64(c.Allocs)
	out["core.frees"] = float64(c.Frees)
	out["core.invokes"] = float64(c.Invokes)
	out["core.index_rebuilds"] = float64(t.rebuilds)
	out["core.search_virt_ms"] = c.SearchTime.Milliseconds()
	out["hostmmu.faults"] = float64(t.mmu.Faults)
	out["hostmmu.mprotects"] = float64(t.mmu.Mprotects)
	out["accel.copies_h2d"] = float64(t.dev.CopiesH2D)
	out["accel.copies_d2h"] = float64(t.dev.CopiesD2H)
	out["accel.bytes_h2d"] = float64(t.dev.BytesH2D)
	out["accel.bytes_d2h"] = float64(t.dev.BytesD2H)
	out["accel.launches"] = float64(t.dev.Launches)
	out["accel.kernel_virt_s"] = t.dev.KernelTime.Seconds()
	out["oplog.flight_ops"] = float64(t.flight)
	bd := func(cats ...sim.Category) float64 {
		var v sim.Time
		for _, c := range cats {
			v += t.bd[c]
		}
		return v.Seconds()
	}
	out["sim.virt_copy_s"] = bd(sim.CatCopy)
	out["sim.virt_signal_s"] = bd(sim.CatSignal)
	out["sim.virt_gpu_s"] = bd(sim.CatGPU)
	out["sim.virt_sync_s"] = bd(sim.CatSync)
	out["sim.virt_malloc_s"] = bd(sim.CatMalloc, sim.CatCudaMalloc)
	out["sim.virt_free_s"] = bd(sim.CatFree, sim.CatCudaFree)
	out["sim.virt_launch_s"] = bd(sim.CatLaunch, sim.CatCudaLaunch)
	out["sim.virt_io_s"] = bd(sim.CatIORead, sim.CatIOWrite)
	out["sim.virt_cpu_s"] = bd(sim.CatCPU)
}
