package workloads

import (
	"testing"

	"repro/gmac"
	"repro/internal/sim"
	"repro/machine"
)

// smallOpts runs workloads on the small testbed with a block size suited to
// tiny data sets.
func smallOpts() Options {
	return Options{
		BlockSize: 16 << 10,
		Machine: func() *machine.Machine {
			cfg := machine.PaperTestbedConfig()
			cfg.Accelerators[0].MemSize = 128 << 20
			m, err := machine.New(cfg)
			if err != nil {
				panic(err)
			}
			return m
		},
	}
}

// TestChecksumEquality is the central correctness property of the
// reproduction: for every workload, the CUDA baseline and the GMAC version
// under every coherence protocol compute bit-identical results.
func TestChecksumEquality(t *testing.T) {
	for _, b := range AllSmall() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			reports, err := RunAllVariants(b, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			want := reports[VariantCUDA].Checksum
			if want == 0 {
				t.Fatalf("degenerate checksum 0 for %s", b.Name())
			}
			for v, r := range reports {
				if r.Checksum != want {
					t.Errorf("%s/%s checksum %v != cuda %v", b.Name(), v, r.Checksum, want)
				}
				if r.Time <= 0 {
					t.Errorf("%s/%s reported non-positive time %v", b.Name(), v, r.Time)
				}
			}
		})
	}
}

func TestBenchmarkMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range All() {
		if b.Name() == "" || b.Description() == "" {
			t.Fatalf("benchmark %T missing metadata", b)
		}
		if seen[b.Name()] {
			t.Fatalf("duplicate benchmark name %s", b.Name())
		}
		seen[b.Name()] = true
	}
	if len(Parboil()) != 7 {
		t.Fatalf("Parboil suite has %d benchmarks, want 7 (Table 2)", len(Parboil()))
	}
}

func TestLazyAndRollingBeatBatchOnIterative(t *testing.T) {
	// The Figure 7 property at test scale: for the iterative benchmarks,
	// batch-update transfers far more data and takes far longer than
	// lazy/rolling.
	for _, b := range []Benchmark{SmallPNS(), SmallRPES()} {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			reports, err := RunAllVariants(b, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			batch := reports[VariantBatch]
			lazy := reports[VariantLazy]
			rolling := reports[VariantRolling]
			cuda := reports[VariantCUDA]
			if batch.Time < 2*cuda.Time {
				t.Errorf("batch %v not clearly slower than cuda %v", batch.Time, cuda.Time)
			}
			for _, r := range []Report{lazy, rolling} {
				if r.Time > 2*cuda.Time {
					t.Errorf("%s took %v vs cuda %v (should be comparable)", r.Variant, r.Time, cuda.Time)
				}
				if r.GMAC.BytesH2D >= batch.GMAC.BytesH2D/2 {
					t.Errorf("%s H2D %d not much less than batch %d", r.Variant, r.GMAC.BytesH2D, batch.GMAC.BytesH2D)
				}
			}
		})
	}
}

func TestRollingFetchesLessThanLazyOnStencil(t *testing.T) {
	// The Figure 9 property: the per-step source introduction costs lazy a
	// whole-volume fetch but rolling only one block.
	s := SmallStencil()
	opts := smallOpts()
	opts.Protocol = gmac.LazyUpdate
	lazy, err := RunGMAC(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Protocol = gmac.RollingUpdate
	opts.BlockSize = 4 << 10
	rolling, err := RunGMAC(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rolling.GMAC.BytesD2H >= lazy.GMAC.BytesD2H {
		t.Fatalf("rolling D2H %d should be below lazy %d", rolling.GMAC.BytesD2H, lazy.GMAC.BytesD2H)
	}
	if rolling.Checksum != lazy.Checksum {
		t.Fatalf("checksum mismatch: %v vs %v", rolling.Checksum, lazy.Checksum)
	}
}

func TestVecAddStreamChunk(t *testing.T) {
	v := SmallVecAdd()
	if v.chunk() != 64<<10 {
		t.Fatalf("default chunk %d", v.chunk())
	}
	v.StreamChunk = 4 << 10
	if v.chunk() != 4<<10 {
		t.Fatalf("explicit chunk %d", v.chunk())
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(5), NewRand(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Rand not deterministic")
		}
	}
	if NewRand(0).Uint64() == 0 {
		t.Fatal("zero seed not remapped")
	}
	r := NewRand(9)
	for i := 0; i < 100; i++ {
		f := r.Float32()
		if f < 0 || f >= 1 {
			t.Fatalf("Float32 out of range: %v", f)
		}
		n := r.Intn(10)
		if n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %d", n)
		}
	}
}

func TestChecksumHelpers(t *testing.T) {
	if checksum([]float32{1, 2, 3}) == checksum([]float32{3, 2, 1}) {
		t.Fatal("checksum is order-insensitive")
	}
	if checksumBytes([]byte{1, 2}) == checksumBytes([]byte{2, 1}) {
		t.Fatal("checksumBytes is order-insensitive")
	}
	b := f32bytes([]float32{1.5, -2.25})
	if getF32(b) != 1.5 || getF32(b[4:]) != -2.25 {
		t.Fatal("f32bytes round trip failed")
	}
}

func TestReportString(t *testing.T) {
	r := Report{Benchmark: "x", Variant: VariantCUDA, Checksum: 3}
	if r.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestWorkloadStructuralProperties(t *testing.T) {
	// Each workload's figure-relevant structure, checked at test scale.
	opts := smallOpts()

	t.Run("pns-state-stays-on-device", func(t *testing.T) {
		// The property behind pns's 65x batch slowdown: lazy moves only
		// the statistics buffer during the stepping loop.
		rep, err := RunGMAC(SmallPNS(), func() Options {
			o := opts
			o.Protocol = gmac.LazyUpdate
			return o
		}())
		if err != nil {
			t.Fatal(err)
		}
		p := SmallPNS()
		stateBytes := p.Places * 4
		// D2H = stats probes + final state + final stats, nowhere near
		// steps * state.
		if rep.GMAC.BytesD2H > 2*stateBytes {
			t.Fatalf("pns lazy D2H %d suggests the marking bounced", rep.GMAC.BytesD2H)
		}
	})

	t.Run("mri-io-dominates", func(t *testing.T) {
		rep, err := RunGMAC(SmallMRIQ(), func() Options {
			o := opts
			o.Protocol = gmac.RollingUpdate
			return o
		}())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Breakdown.Fraction(sim.CatIORead) < 0.3 {
			t.Fatalf("mri-q IORead share %.2f, want the dominant slice",
				rep.Breakdown.Fraction(sim.CatIORead))
		}
	})

	t.Run("tpacf-three-stream-init", func(t *testing.T) {
		// With a pinned rolling size of 1, the three interleaved init
		// streams must thrash: far more H2D than one copy of the sets.
		bench := SmallTPACF()
		o := opts
		o.Protocol = gmac.RollingUpdate
		o.BlockSize = 16 << 10
		o.FixedRolling = 1
		rep, err := RunGMAC(bench, o)
		if err != nil {
			t.Fatal(err)
		}
		minimum := int64(bench.Sets+1) * bench.Points * 12
		if rep.GMAC.BytesH2D < 2*minimum {
			t.Fatalf("tpacf rs=1 H2D %d shows no thrash (minimum %d)",
				rep.GMAC.BytesH2D, minimum)
		}
	})

	t.Run("stencil-source-is-one-block", func(t *testing.T) {
		o := opts
		o.Protocol = gmac.RollingUpdate
		o.BlockSize = 4 << 10
		rep, err := RunGMAC(SmallStencil(), o)
		if err != nil {
			t.Fatal(err)
		}
		s := SmallStencil()
		vol := s.N * s.N * s.N * 4
		// Per-step fetches stay around one block, not the volume.
		if rep.GMAC.BytesD2H > 3*vol {
			t.Fatalf("stencil rolling fetched %d bytes for a %d-byte volume", rep.GMAC.BytesD2H, vol)
		}
	})
}
