// Quickstart: the smallest complete GMAC program.
//
// It allocates two shared vectors, initialises them from the CPU with
// plain writes, runs a SAXPY kernel on the simulated accelerator, and
// reads the result back from the CPU — with not a single explicit data
// transfer anywhere. Compare with the dual-pointer, cudaMemcpy-laden
// baseline in Figure 3 of the paper.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"repro/gmac"
	"repro/machine"
)

const n = 1 << 20 // 1M elements

func main() {
	// Build the paper's evaluation platform: a 3 GHz Opteron host and a
	// simulated G280 behind PCIe 2.0 x16, sharing one virtual clock.
	m := machine.PaperTestbed()
	defer m.Close() // gives the simulated gigabyte of device memory back
	ctx, err := gmac.NewContext(m, gmac.Config{Protocol: gmac.RollingUpdate})
	if err != nil {
		log.Fatal(err)
	}

	// Kernels are plain Go functions over device memory, registered with
	// a roofline cost model (FLOPs, bytes) for virtual timing.
	ctx.Register(func() *gmac.Kernel {
		return &gmac.Kernel{
			Name: "saxpy",
			Run: func(dev *gmac.DeviceMemory, args []uint64) {
				x, y := gmac.Ptr(args[0]), gmac.Ptr(args[1])
				a := math.Float32frombits(uint32(args[2]))
				for i := int64(0); i < n; i++ {
					dev.SetFloat32(y+gmac.Ptr(i*4), a*dev.Float32(x+gmac.Ptr(i*4))+dev.Float32(y+gmac.Ptr(i*4)))
				}
			},
			Cost: func([]uint64) (float64, int64) { return 2 * n, 12 * n },
		}
	})

	// adsmAlloc: one pointer, valid on the CPU and in kernels.
	x, err := ctx.Alloc(n * 4)
	if err != nil {
		log.Fatal(err)
	}
	y, err := ctx.Alloc(n * 4)
	if err != nil {
		log.Fatal(err)
	}

	// Plain CPU writes; the runtime moves data underneath.
	xv, _ := ctx.Float32s(x, n)
	yv, _ := ctx.Float32s(y, n)
	if err := xv.Fill(1.5); err != nil {
		log.Fatal(err)
	}
	if err := yv.Fill(1.0); err != nil {
		log.Fatal(err)
	}

	// adsmCall + adsmSync: the release/acquire boundary. Call is
	// synchronous by default; pass gmac.Async() to overlap CPU work.
	if err := ctx.Call("saxpy", []uint64{uint64(x), uint64(y), uint64(math.Float32bits(2))}); err != nil {
		log.Fatal(err)
	}

	// Plain CPU reads of accelerator-produced data.
	sum, err := yv.Sum()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("y[0] = %v (want 4), sum = %.0f (want %d)\n", yv.At(0), sum, n*4)

	st := ctx.Stats()
	fmt.Printf("virtual time: %v\n", m.Elapsed())
	fmt.Printf("transfers: %d KB to accelerator, %d KB back, %d page faults, %d eager evictions\n",
		st.BytesH2D>>10, st.BytesD2H>>10, st.Faults, st.Evictions)
	fmt.Printf("time breakdown: %s\n", m.Breakdown)
	fmt.Printf("GPU busy: %v across %d kernel launches\n",
		m.Device().Stats().KernelTime, m.Device().Stats().Launches)

	if err := ctx.Free(x); err != nil {
		log.Fatal(err)
	}
	if err := ctx.Free(y); err != nil {
		log.Fatal(err)
	}
}
