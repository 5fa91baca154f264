package workloads

import (
	"testing"

	"repro/gmac"
)

// Batched span-fault service conformance: fault batching and adaptive span
// promotion are pure fetch-granularity optimisations, so every workload must
// compute byte-identical results with batching on (the default) and off (the
// paper's one-fault-per-block oracle), move the same flush traffic, and never
// issue more fault-service DMAs than the oracle.
//
// CI runs this file under the race detector (`make bench-conformance`, the
// conformance job in .github/workflows/ci.yml).

// TestBatchingConformanceAllWorkloads diffs a batched run against the
// unbatched oracle for all eleven workloads under both fine-grained
// protocols. Batch-update objects have a single block, so batching is a
// no-op there by construction.
func TestBatchingConformanceAllWorkloads(t *testing.T) {
	protocols := map[string]gmac.Protocol{
		"lazy":    gmac.LazyUpdate,
		"rolling": gmac.RollingUpdate,
	}
	for _, b := range AllSmall() {
		b := b
		for pname, proto := range protocols {
			proto := proto
			t.Run(b.Name()+"/"+pname, func(t *testing.T) {
				t.Parallel()
				opts := smallOpts()
				opts.Protocol = proto
				batched, err := RunGMAC(b, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.DisableFaultBatching = true
				oracle, err := RunGMAC(b, opts)
				if err != nil {
					t.Fatal(err)
				}
				if batched.Checksum != oracle.Checksum {
					t.Errorf("checksum diverged: batched %v, oracle %v",
						batched.Checksum, oracle.Checksum)
				}
				// Batching only changes the fetch direction; flush traffic is
				// identical.
				if batched.GMAC.BytesH2D != oracle.GMAC.BytesH2D {
					t.Errorf("H2D bytes diverged: batched %d, oracle %d",
						batched.GMAC.BytesH2D, oracle.GMAC.BytesH2D)
				}
				// Every batched DMA covers at least one real fault, so the
				// transfer count can only shrink.
				if batched.GMAC.TransfersD2H > oracle.GMAC.TransfersD2H {
					t.Errorf("batched D2H transfers %d exceed oracle %d",
						batched.GMAC.TransfersD2H, oracle.GMAC.TransfersD2H)
				}
				if oracle.GMAC.FaultBatches != 0 || oracle.GMAC.PrefetchedBlocks != 0 {
					t.Errorf("oracle run batched anyway: %d batches, %d prefetched",
						oracle.GMAC.FaultBatches, oracle.GMAC.PrefetchedBlocks)
				}
			})
		}
	}
}

// TestBatchingReplayRoundTrip records a run with batching on and off,
// round-trips the op stream through the wire format, and checks that the
// HdrNoFaultBatch header flag reconstructs the recording configuration —
// so a replayed stream batches (or not) exactly as the original did and
// reproduces every adsm_* counter, including the new batch counters.
func TestBatchingReplayRoundTrip(t *testing.T) {
	for _, disable := range []bool{false, true} {
		name := "batched"
		if disable {
			name = "oracle"
		}
		t.Run(name, func(t *testing.T) {
			opts := smallOpts()
			opts.Protocol = gmac.RollingUpdate
			opts.Record = 1 << 20
			opts.DisableFaultBatching = disable
			rep, err := RunGMAC(SmallStencil(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OpLog == nil || len(rep.OpLog.Ops) == 0 {
				t.Fatal("no op stream recorded")
			}
			l, err := gmac.DecodeOpLog(rep.OpLog.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if got := l.Header.Flags&gmac.HdrNoFaultBatch != 0; got != disable {
				t.Fatalf("HdrNoFaultBatch = %v, want %v (flags %#x)",
					got, disable, l.Header.Flags)
			}
			cfg := gmac.ReplayConfig(l.Header)
			if cfg.DisableFaultBatching != disable {
				t.Fatalf("ReplayConfig.DisableFaultBatching = %v, want %v",
					cfg.DisableFaultBatching, disable)
			}
			ctx, err := gmac.NewContext(smallOpts().Machine(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			report, err := ctx.Replay(l, gmac.ReplayOptions{})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if report.Skipped != 0 || report.Errors != 0 {
				t.Fatalf("strict replay skipped %d, errored %d",
					report.Skipped, report.Errors)
			}
			if err := gmac.CompareTotals(l.Totals, ctx.Stats().Counters()); err != nil {
				t.Error(err)
			}
			if disable && ctx.Stats().FaultBatches != 0 {
				t.Errorf("oracle replay batched: %d batches", ctx.Stats().FaultBatches)
			}
		})
	}
}

// TestBatchingRaceDetectorClean runs batched workloads with the online
// vector-clock race detector enabled: span prefetch must not introduce any
// host/device access-order violation.
func TestBatchingRaceDetectorClean(t *testing.T) {
	for _, b := range []Benchmark{SmallStencil(), SmallCP(), SmallVecAdd()} {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			opts := smallOpts()
			opts.Protocol = gmac.RollingUpdate
			opts.RaceDetect = true
			rep, err := RunGMAC(b, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.GMAC.RacesDetected != 0 {
				t.Fatalf("batched %s run flagged %d races", b.Name(), rep.GMAC.RacesDetected)
			}
			if rep.GMAC.FaultBatches == 0 && rep.GMAC.ReadFaults > 8 {
				t.Logf("note: %s produced no fault batches (access pattern not sequential)", b.Name())
			}
		})
	}
}
