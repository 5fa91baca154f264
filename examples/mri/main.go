// MRI: a realistic I/O-to-kernel-to-I/O pipeline, modelled on the Parboil
// mri-q reconstruction workload the paper's Figure 10 analyses.
//
// Scanner samples are read from disk straight into shared memory (the
// peer-DMA illusion of §4.4), two kernels run back to back on the
// accelerator, and the reconstructed matrix is written to disk straight
// from the shared pointer. The CPU never stages a single buffer.
//
//	go run ./examples/mri
package main

import (
	"fmt"
	"log"

	"repro/gmac"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/machine"
)

func main() {
	m := machine.PaperTestbed()
	defer m.Close()
	ctx, err := gmac.NewContext(m, gmac.Config{Protocol: gmac.RollingUpdate})
	if err != nil {
		log.Fatal(err)
	}

	bench := workloads.DefaultMRIQ()
	bench.Register(m.Device())
	if err := bench.Prepare(m); err != nil {
		log.Fatal(err)
	}

	start := m.Elapsed()
	sum, err := bench.RunGMAC(ctx)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := m.Elapsed() - start

	fmt.Printf("mri-q: %d k-space samples x %d voxels reconstructed in %v (virtual)\n",
		bench.K, bench.X, elapsed)
	fmt.Printf("output checksum: %v\n", sum)

	fmt.Println("\nexecution-time breakdown (the Figure 10 view):")
	for _, cat := range sim.Categories() {
		t := m.Breakdown.Get(cat)
		if t == 0 {
			continue
		}
		bar := int(50 * m.Breakdown.Fraction(cat))
		fmt.Printf("  %-11s %10v  %s\n", cat, t, bars(bar))
	}
	st := ctx.Stats()
	fmt.Printf("\nshared-memory traffic: %d KB in, %d KB out, %d faults (signal time %v)\n",
		st.BytesH2D>>10, st.BytesD2H>>10, st.Faults, st.SearchTime)
	fmt.Println("note the IORead share: mri workloads are dominated by sample input,")
	fmt.Println("which is why the paper argues they would benefit from true peer DMA.")
}

func bars(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
