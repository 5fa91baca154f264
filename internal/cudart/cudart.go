// Package cudart presents the simulated accelerator through a CUDA-runtime
// style API: explicit device allocation, explicit synchronous and
// asynchronous memory copies, kernel launch, and thread synchronisation.
// The baseline versions of every workload — the "programmer-managed data
// transfers" the paper compares GMAC against — are written on top of this
// package, and GMAC's accelerator abstraction layer shares the same device
// underneath, exactly as Figure 5 describes.
package cudart

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Runtime is one process's view of the CUDA runtime bound to a device.
type Runtime struct {
	dev   *accel.Device
	clock *sim.Clock
	bd    *sim.Breakdown
	// hostAllocCost models malloc() for the host staging buffers baseline
	// code must maintain.
	hostAllocCost sim.Time
}

// New returns a runtime for dev. The breakdown may be nil.
func New(dev *accel.Device, clock *sim.Clock, bd *sim.Breakdown) *Runtime {
	return &Runtime{dev: dev, clock: clock, bd: bd, hostAllocCost: 2 * sim.Microsecond}
}

// Device returns the underlying accelerator.
func (r *Runtime) Device() *accel.Device { return r.dev }

func (r *Runtime) book(cat sim.Category, d sim.Time) {
	if r.bd != nil && d > 0 {
		r.bd.Add(cat, d)
	}
}

// Malloc is cudaMalloc: it allocates device memory.
func (r *Runtime) Malloc(size int64) (mem.Addr, error) {
	t0 := r.clock.Now()
	addr, err := r.dev.Malloc(size)
	r.book(sim.CatCudaMalloc, r.clock.Now()-t0)
	return addr, err
}

// Free is cudaFree.
func (r *Runtime) Free(addr mem.Addr) error {
	t0 := r.clock.Now()
	err := r.dev.Free(addr)
	r.book(sim.CatCudaFree, r.clock.Now()-t0)
	return err
}

// MallocHost models allocating a host staging buffer (the dual-pointer
// pattern of Figure 3): it returns a plain byte slice and charges the
// host-side allocation cost.
func (r *Runtime) MallocHost(size int64) []byte {
	r.clock.Advance(r.hostAllocCost)
	r.book(sim.CatMalloc, r.hostAllocCost)
	return make([]byte, size)
}

// MemcpyH2D is the synchronous cudaMemcpy(..., cudaMemcpyHostToDevice).
func (r *Runtime) MemcpyH2D(dst mem.Addr, src []byte) {
	t0 := r.clock.Now()
	r.dev.MemcpyH2D(dst, src)
	r.book(sim.CatCopy, r.clock.Now()-t0)
}

// MemcpyD2H is the synchronous cudaMemcpy(..., cudaMemcpyDeviceToHost).
func (r *Runtime) MemcpyD2H(dst []byte, src mem.Addr) {
	t0 := r.clock.Now()
	r.dev.MemcpyD2H(dst, src)
	r.book(sim.CatCopy, r.clock.Now()-t0)
}

// MemcpyH2DAsync is cudaMemcpyAsync host-to-device: the copy completes no
// later than the next Synchronize.
func (r *Runtime) MemcpyH2DAsync(dst mem.Addr, src []byte) {
	r.dev.MemcpyH2DAsync(dst, src)
}

// MemcpyD2HAsync is cudaMemcpyAsync device-to-host.
func (r *Runtime) MemcpyD2HAsync(dst []byte, src mem.Addr) {
	r.dev.MemcpyD2HAsync(dst, src)
}

// Memset is cudaMemset.
func (r *Runtime) Memset(dst mem.Addr, b byte, n int64) {
	r.dev.Memset(dst, b, n)
}

// Launch is the kernel launch (<<<...>>> dispatch).
func (r *Runtime) Launch(kernel string, args ...uint64) error {
	t0 := r.clock.Now()
	_, err := r.dev.Launch(kernel, args...)
	r.book(sim.CatCudaLaunch, r.clock.Now()-t0)
	if err != nil {
		return fmt.Errorf("cudart: %w", err)
	}
	return nil
}

// Synchronize is cudaThreadSynchronize: it stalls until every enqueued
// operation (copies and kernels) completes. The stall is charged to the
// GPU slice of the breakdown, since kernel execution dominates it.
func (r *Runtime) Synchronize() {
	stall := r.dev.Synchronize()
	r.book(sim.CatGPU, stall)
}
