package accel

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// Kernel is a data-parallel routine registered with a device. Run receives
// the raw device memory space and the launch arguments (addresses and
// scalars, like a CUDA argument buffer) and must confine its accesses to
// device memory — host memory is unreachable from the accelerator, which
// is the asymmetry ADSM builds on.
type Kernel struct {
	// Name identifies the kernel in Launch calls and reports.
	Name string
	// Run executes the kernel against device memory. It may spread its
	// work over several goroutines (mem.Split), but all of it is done
	// when Run returns.
	Run func(dev *mem.Space, args []uint64)
	// Cost estimates the kernel's resource demands for the launch. If nil,
	// a fixed nominal duration is charged.
	Cost CostFn
}

// CostFn reports the work of one launch: floating-point operations executed
// and bytes moved through on-board memory. The device turns these into a
// duration with a roofline model.
type CostFn func(args []uint64) (flops float64, bytes int64)

// nominalKernelTime is charged for kernels without a cost model.
const nominalKernelTime = 10 * sim.Microsecond

// cost computes the virtual execution time of one launch on device d:
// the maximum of the compute-bound and memory-bound times (roofline), but
// at least one SM scheduling quantum.
func (k *Kernel) cost(d *Device, args []uint64) sim.Time {
	if k.Cost == nil {
		return nominalKernelTime
	}
	flops, bytes := k.Cost(args)
	compute := sim.Time(flops / (d.cfg.GFLOPS * 1e9) * 1e9)
	memory := d.cfg.MemLink.TransferTime(bytes) - d.cfg.MemLink.Latency
	t := compute
	if memory > t {
		t = memory
	}
	if minT := sim.Time(2 * sim.Microsecond); t < minT {
		t = minT
	}
	return t
}

// FixedCost returns a CostFn charging a constant amount of work per launch.
func FixedCost(flops float64, bytes int64) CostFn {
	return func([]uint64) (float64, int64) { return flops, bytes }
}
