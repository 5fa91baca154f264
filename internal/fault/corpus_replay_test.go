package fault_test

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/gmac"
	"repro/internal/fault"
	"repro/machine"
)

// corpusFiles returns the committed recorded-workload corpus
// (testdata/corpus/*.oplog, regenerated with `make record-corpus`).
func corpusFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.oplog"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	return files
}

// TestChaosCorpusReplay drives the recorded-workload corpus through the
// runtime with a recoverable fault schedule armed on the device: every
// real application op stream doubles as a chaos scenario. Transparent
// retries must absorb each injection — the replay completes, the
// invariants hold, nothing escalates to device loss or degradation, and
// the replay's own recorded stream analyses race-free.
func TestChaosCorpusReplay(t *testing.T) {
	files := corpusFiles(t)
	if len(files) == 0 {
		t.Skip("no recorded corpus (run `make record-corpus`)")
	}
	schedules := []struct {
		name  string
		rules []fault.Rule
	}{
		{"dma-transient", []fault.Rule{
			fault.Prob(fault.OpDMAH2D, 0.08, fault.KindTransient),
			fault.Prob(fault.OpDMAD2H, 0.05, fault.KindTransient),
		}},
		{"launch-every-4", []fault.Rule{
			fault.EveryK(fault.OpLaunch, 4, fault.KindTransient),
		}},
	}
	injected := int64(0)
	retried := int64(0)
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		l, err := gmac.DecodeOpLog(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, sched := range schedules {
			sched := sched
			t.Run(filepath.Base(path)+"/"+sched.name, func(t *testing.T) {
				// The corpus is recorded on the small evaluation machine
				// (128 MB accelerator); replay on the same shape.
				mcfg := machine.PaperTestbedConfig()
				mcfg.Accelerators[0].MemSize = 128 << 20
				m, err := machine.New(mcfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg := gmac.ReplayConfig(l.Header)
				cfg.MaxRetries = 6 // keep recoverable schedules inside the budget
				ctx, err := gmac.NewContext(m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Record the replay and analyse it: injected faults and
				// their retries are derived events, so even a chaos replay
				// of a well-synchronised workload must stay race-free. The
				// ring holds the input ops plus every derived op many
				// times over, so FinishOpLog cannot wrap.
				ctx.EnableRecorder(16 * (len(l.Ops) + 1024))
				inj := fault.NewInjector(1, m.Clock, sched.rules...)
				m.Device().SetFaultInjector(inj)
				report, err := ctx.Replay(l, gmac.ReplayOptions{})
				if err != nil {
					t.Fatalf("replay under %s: %v", sched.name, err)
				}
				if report.Skipped != 0 || report.Errors != 0 {
					t.Fatalf("replay skipped %d, errored %d", report.Skipped, report.Errors)
				}
				st := ctx.Stats()
				if st.DeviceLostEvents != 0 {
					t.Fatalf("recoverable schedule escalated to device loss after %d injections", inj.Total())
				}
				if err := ctx.Manager().CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if st.RetryGiveups != 0 || st.DegradedObjects != 0 {
					t.Errorf("recoverable schedule gave up: %+v", st)
				}
				rec, err := ctx.FinishOpLog(sched.name)
				if err != nil {
					t.Fatal(err)
				}
				if rep := gmac.AnalyzeRaces(rec); rep.Count != 0 {
					t.Errorf("race detector flagged %d false positive(s) under %s:\n%v",
						rep.Count, sched.name, rep.Races)
				}
				injected += inj.Total()
				retried += st.Retries
			})
		}
	}
	// Across the whole corpus the schedules must actually bite: a corpus
	// that never triggers an injection validates nothing.
	if injected == 0 {
		t.Error("corpus replays injected nothing; the suite is vacuous")
	}
	if injected > 0 && retried == 0 {
		t.Errorf("%d injections but no retries recorded", injected)
	}
}
