package gmac

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/testutil"
	"repro/machine"
)

// registerBump registers a kernel under the given name that increments the
// first uint32 of each block of its object. args: ptr, nBlocks, blockSize.
// Each storm worker gets its own kernel so its object can be bound via
// ForKernels — the §3.3 idiom that keeps one goroutine's release/acquire
// sweep away from every other goroutine's objects.
func registerBump(s Session, name string) {
	s.Register(func() *Kernel {
		return &Kernel{
			Name: name,
			Run: func(dev *DeviceMemory, args []uint64) {
				p, nb, bs := Ptr(args[0]), int64(args[1]), int64(args[2])
				for b := int64(0); b < nb; b++ {
					q := p + Ptr(b*bs)
					dev.SetUint32(q, dev.Uint32(q)+1)
				}
			},
			Cost: func(args []uint64) (float64, int64) {
				return float64(args[1]), int64(args[1]) * int64(args[2])
			},
		}
	})
}

// stormWorker drives one goroutine's share of the storm: a deterministic
// but per-goroutine-distinct mix of write faults, kernel calls, read
// faults, view traffic and — when fullSync is set — full Syncs against its
// own object. fullSync is off under batch-update: that protocol's global
// acquire rewrites every in-scope object's host copy by design, so issuing
// it while other goroutines read is an application-level race the model
// reproduces faithfully.
func stormWorker(s Session, kernel string, p Ptr, seed int64, rounds int, objBytes, blockSize int64, fullSync bool) error {
	rng := rand.New(rand.NewSource(seed))
	blocks := objBytes / blockSize
	buf := make([]byte, 8)
	for r := 0; r < rounds; r++ {
		// Dirty a random subset of blocks from the host.
		for b := int64(0); b < blocks; b++ {
			if rng.Intn(2) == 0 {
				off := b*blockSize + int64(rng.Intn(int(blockSize-8)))
				if err := s.HostWrite(p+Ptr(off), buf[:4]); err != nil {
					return fmt.Errorf("HostWrite: %w", err)
				}
			}
		}
		// Release + launch + per-call sync on this object.
		if err := s.Call(kernel, []uint64{uint64(p), uint64(blocks), uint64(blockSize)}); err != nil {
			return fmt.Errorf("Call: %w", err)
		}
		// Fault some blocks back in.
		for b := int64(0); b < blocks; b++ {
			if rng.Intn(2) == 0 {
				if err := s.HostRead(p+Ptr(b*blockSize), buf); err != nil {
					return fmt.Errorf("HostRead: %w", err)
				}
			}
		}
		// Occasionally mix in view traffic and a full acquire.
		switch rng.Intn(4) {
		case 0:
			v, err := s.Float32s(p, objBytes/4)
			if err != nil {
				return fmt.Errorf("Float32s: %w", err)
			}
			v.At(int64(rng.Intn(int(objBytes / 4))))
		case 1:
			if fullSync {
				if err := s.Sync(); err != nil {
					return fmt.Errorf("Sync: %w", err)
				}
			}
		}
		if _, err := s.Safe(p); err != nil {
			return fmt.Errorf("object freed mid-storm: %w", err)
		}
	}
	return nil
}

// TestConcurrentStormContext hammers one single-device Context from many
// goroutines at once — the tentpole guarantee: concurrent host threads may
// fault, launch and synchronise freely. Run under -race (make race / CI)
// this doubles as the data-race gate; afterwards CheckInvariants audits the
// full manager state.
func TestConcurrentStormContext(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 6
		blockSize  = 4 << 10
		objBytes   = 32 << 10
	)
	base := testutil.Seed(t, 1)
	for _, p := range []Protocol{BatchUpdate, LazyUpdate, RollingUpdate} {
		t.Run(p.String(), func(t *testing.T) {
			m := machine.SmallTestbed()
			ctx, err := NewContext(m, Config{Protocol: p, BlockSize: blockSize})
			if err != nil {
				t.Fatal(err)
			}

			objs := make([]Ptr, goroutines)
			kernels := make([]string, goroutines)
			for i := range objs {
				kernels[i] = fmt.Sprintf("bump%d", i)
				registerBump(ctx, kernels[i])
				if objs[i], err = ctx.Alloc(objBytes, ForKernels(kernels[i])); err != nil {
					t.Fatal(err)
				}
			}

			fullSync := p != BatchUpdate
			var wg sync.WaitGroup
			errs := make([]error, goroutines)
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = stormWorker(ctx, kernels[i], objs[i], base+int64(i), rounds, objBytes, blockSize, fullSync)
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
			}

			if err := ctx.Manager().CheckInvariants(); err != nil {
				t.Fatalf("invariants after storm: %v", err)
			}
			st := ctx.Stats()
			if st.Invokes < goroutines*rounds {
				t.Fatalf("storm did no work: %+v", st)
			}
			if p != BatchUpdate && st.Faults == 0 {
				// Batch-update never faults: it moves everything at call
				// boundaries. The detection protocols must have faulted.
				t.Fatalf("no faults under %v: %+v", p, st)
			}
			for i, p := range objs {
				// Every round bumped block 0's counter exactly once,
				// regardless of interleaving.
				if got := readU32(t, ctx, p); got < rounds {
					t.Errorf("object %d block 0 counter = %d, want >= %d", i, got, rounds)
				}
				if err := ctx.Free(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := ctx.Manager().CheckInvariants(); err != nil {
				t.Fatalf("invariants after frees: %v", err)
			}
		})
	}
}

// TestConcurrentStormRaceDetect reruns the single-device storm with the
// op-stream recorder on and analyses the recorded stream for races. Under
// -race this gates the recorder on the concurrent emit path; and since
// every worker owns its objects and every Call syncs, the analysis must
// also stay silent — the detector's false-positive gate under real
// concurrency.
func TestConcurrentStormRaceDetect(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 6
		blockSize  = 4 << 10
		objBytes   = 32 << 10
	)
	base := testutil.Seed(t, 7)
	m := machine.SmallTestbed()
	ctx, err := NewContext(m, Config{Protocol: RollingUpdate, BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	ctx.EnableRecorder(1 << 16)

	objs := make([]Ptr, goroutines)
	kernels := make([]string, goroutines)
	for i := range objs {
		kernels[i] = fmt.Sprintf("bump%d", i)
		registerBump(ctx, kernels[i])
		if objs[i], err = ctx.Alloc(objBytes, ForKernels(kernels[i])); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = stormWorker(ctx, kernels[i], objs[i], base+int64(i), rounds, objBytes, blockSize, true)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	if err := ctx.Manager().CheckInvariants(); err != nil {
		t.Fatalf("invariants after storm: %v", err)
	}
	st := ctx.Stats()
	if st.Invokes < goroutines*rounds {
		t.Fatalf("storm did no work: %+v", st)
	}
	for _, p := range objs {
		if err := ctx.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	l, err := ctx.FinishOpLog("storm")
	if err != nil {
		t.Fatal(err)
	}
	if rep := AnalyzeRaces(l); rep.Count != 0 {
		t.Fatalf("detector flagged %d race(s) on a per-object storm:\n%v", rep.Count, rep.Races)
	}
}

// TestConcurrentStormMulti runs the same storm through a MultiContext, so
// goroutines exercise the fault dispatcher, per-device routing and the
// concurrent full-machine Sync at once.
func TestConcurrentStormMulti(t *testing.T) {
	const (
		goroutines = 6
		rounds     = 5
		blockSize  = 4 << 10
		objBytes   = 32 << 10
	)
	base := testutil.Seed(t, 100)
	m := machine.DualGPUTestbed(true)
	mc, err := NewMultiContext(m, Config{Protocol: RollingUpdate, BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}

	objs := make([]Ptr, goroutines)
	kernels := make([]string, goroutines)
	for i := range objs {
		kernels[i] = fmt.Sprintf("bump%d", i)
		registerBump(mc, kernels[i])
		// Spread objects across both devices explicitly.
		if objs[i], err = mc.Alloc(objBytes, OnDevice(i%mc.Devices()), ForKernels(kernels[i])); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = stormWorker(mc, kernels[i], objs[i], base+int64(i), rounds, objBytes, blockSize, true)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	for d := 0; d < mc.Devices(); d++ {
		if err := mc.Manager(d).CheckInvariants(); err != nil {
			t.Fatalf("device %d invariants after storm: %v", d, err)
		}
	}
	st := mc.Stats()
	if st.Faults == 0 || st.Invokes < goroutines*rounds {
		t.Fatalf("storm did no work: %+v", st)
	}
	for _, p := range objs {
		if err := mc.Free(p); err != nil {
			t.Fatal(err)
		}
	}
}
