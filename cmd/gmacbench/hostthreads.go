package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/gmac"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/machine"
)

// runHostThreads measures concurrent fault-service throughput: N host
// goroutines hammer one shared MultiContext with the paper's canonical
// rolling-update access pattern (CPU writes fault blocks dirty, a kernel
// call flushes and invalidates them, CPU reads fault them back in). Each
// goroutine works on its own shared object, hosted by its own accelerator
// and bound to its own kernel via ForKernels, so the per-object locking in
// the manager lets all N fault storms proceed in parallel.
//
// The headline metric is simulated throughput: faults serviced per second
// of virtual time. The total amount of work is fixed across thread counts.
// Each worker goroutine runs in its own virtual-time lane (sim.Clock
// Parallel), modelling one hardware thread of the paper's 4-core host:
// its signal handling, mprotect calls and DMA stalls accumulate privately
// and merge max-wise at the end, while its block transfers run on its own
// device's PCIe link. With N threads the N independent fault storms
// therefore overlap in virtual time; with one thread the same work
// serialises on one timeline and one link. Wall-clock throughput is
// printed too, but on a single-core runner it shows scheduler overhead,
// not parallelism.
func runHostThreads(threads int, small bool) error {
	r, err := hostThreads(threads, small)
	if err != nil {
		return err
	}
	simPerSec := float64(r.stats.Faults) / r.virt.Seconds()
	fmt.Printf("hostthreads: %d threads, %d rounds, %d objects x %d blocks of %d KiB (GOMAXPROCS=%d)\n",
		threads, r.rounds, threads, r.blocks, r.blockSize>>10, runtime.GOMAXPROCS(0))
	fmt.Printf("  faults serviced:     %d (%d read, %d write), %d evictions\n",
		r.stats.Faults, r.stats.ReadFaults, r.stats.WriteFaults, r.stats.Evictions)
	fmt.Printf("  virtual time:        %v\n", r.virt)
	fmt.Printf("  simulated rate:      %.0f faults per virtual second\n", simPerSec)
	fmt.Printf("  wall time:           %v (%.0f faults/s real)\n",
		r.wall.Round(time.Millisecond), float64(r.stats.Faults)/r.wall.Seconds())
	fmt.Fprintf(os.Stderr, "hostthreads-summary: threads=%d faults=%d virt_us=%d sim_faults_per_sec=%.0f wall_ms=%d\n",
		threads, r.stats.Faults, int64(r.virt)/1000, simPerSec, r.wall.Milliseconds())
	return nil
}

// hostThreadsResult is what one -hostthreads run measured: the storm's
// shape, its counters and its virtual and wall durations.
type hostThreadsResult struct {
	rounds, blocks, blockSize int
	stats                     gmac.Stats
	virt                      sim.Time
	wall                      time.Duration
}

// hostThreads runs the storm runHostThreads prints.
func hostThreads(threads int, small bool) (hostThreadsResult, error) {
	if threads < 1 {
		return hostThreadsResult{}, fmt.Errorf("hostthreads: need at least 1 thread, got %d", threads)
	}
	const (
		blockSize = 64 << 10 // DMA-dominated fault service
		objBytes  = 1 << 20  // 16 blocks per object
		blocks    = objBytes / blockSize
	)
	totalRounds := 120 // divisible by 1..6 so every -hostthreads does identical work
	if small {
		totalRounds = 12
	}
	if totalRounds%threads != 0 {
		totalRounds = (totalRounds/threads + 1) * threads
	}

	// One accelerator per host thread, disjoint physical windows, each
	// with its own DMA engines on the shared PCIe link model — the §4.2
	// multi-accelerator configuration.
	cfg := machine.PaperTestbedConfig()
	proto := cfg.Accelerators[0]
	proto.MemSize = 64 << 20
	cfg.Accelerators = nil
	for i := 0; i < threads; i++ {
		a := proto
		a.Name = fmt.Sprintf("G280 #%d", i)
		a.MemBase = proto.MemBase + mem.Addr(i)*0x1000_0000
		cfg.Accelerators = append(cfg.Accelerators, a)
	}
	m, err := machine.New(cfg)
	if err != nil {
		return hostThreadsResult{}, err
	}
	defer m.Close()
	mc, err := gmac.NewMultiContext(m, gmac.Config{
		Protocol:  gmac.RollingUpdate,
		BlockSize: blockSize,
	})
	if err != nil {
		return hostThreadsResult{}, err
	}

	type worker struct {
		kernel string
		obj    gmac.Ptr
	}
	workers := make([]worker, threads)
	for i := range workers {
		name := fmt.Sprintf("touch%d", i)
		mc.Register(func() *gmac.Kernel {
			return &gmac.Kernel{
				Name: name,
				Run: func(dev *gmac.DeviceMemory, args []uint64) {
					p := gmac.Ptr(args[0])
					for b := int64(0); b < blocks; b++ {
						off := gmac.Ptr(b * blockSize)
						dev.SetUint32(p+off, dev.Uint32(p+off)+1)
					}
				},
				Cost: func([]uint64) (float64, int64) { return blocks, objBytes },
			}
		})
		// OnDevice gives each goroutine its own accelerator (and PCIe
		// link); ForKernels keeps its object out of every other
		// goroutine's release/acquire sweep (§3.3).
		p, err := mc.Alloc(objBytes, gmac.OnDevice(i), gmac.ForKernels(name))
		if err != nil {
			return hostThreadsResult{}, err
		}
		workers[i] = worker{kernel: name, obj: p}
	}

	before := mc.Stats()
	virtBefore := m.Elapsed()
	start := time.Now()

	// Each worker models one host hardware thread: its CPU and DMA-stall
	// charges accumulate on a private timeline and merge back max-wise, so
	// independent fault storms overlap in virtual time exactly as they
	// would on the paper's 4-core host.
	err = m.Clock.Parallel(threads, func(i int) error {
		w := workers[i]
		one := []byte{1}
		buf := make([]byte, 1)
		for r := 0; r < totalRounds/threads; r++ {
			for b := int64(0); b < blocks; b++ {
				// Write fault per block: Invalid/ReadOnly -> Dirty,
				// with rolling-cache eviction traffic underneath.
				if err := mc.HostWrite(w.obj+gmac.Ptr(b*blockSize+4), one); err != nil {
					return err
				}
			}
			// Release + launch + acquire on this worker's device only:
			// flushes the dirty blocks and invalidates them for the
			// next round's read faults.
			if err := mc.Call(w.kernel, []uint64{uint64(w.obj)}); err != nil {
				return err
			}
			for b := int64(0); b < blocks; b++ {
				// Read fault per block: Invalid -> ReadOnly fetch.
				if err := mc.HostRead(w.obj+gmac.Ptr(b*blockSize), buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return hostThreadsResult{}, err
	}

	wall := time.Since(start)
	virt := m.Elapsed() - virtBefore
	st := mc.Stats().Sub(before)
	for d := 0; d < mc.Devices(); d++ {
		if err := mc.Manager(d).CheckInvariants(); err != nil {
			return hostThreadsResult{}, fmt.Errorf("hostthreads: invariants violated after storm: %w", err)
		}
	}
	for _, w := range workers {
		if err := mc.Free(w.obj); err != nil {
			return hostThreadsResult{}, err
		}
	}

	return hostThreadsResult{
		rounds: totalRounds, blocks: blocks, blockSize: blockSize,
		stats: st, virt: virt, wall: wall,
	}, nil
}
