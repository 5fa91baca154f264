package core

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/oplog"
	"repro/internal/trace"
)

// foldOps folds a recorded stream with the production fold.
func foldOps(ops []oplog.Op) map[string]int64 {
	var c statsCounters
	for _, op := range ops {
		c.apply(op, nil)
	}
	return c.load().Counters()
}

// recordChaos records one run whose injected faults walk the whole recovery
// path: transient H2D faults that are retried, then D2H faults that never
// stop, so a fetch exhausts its budget, gives up, loses the device and
// degrades its object; the second object degrades at its next access.
func recordChaos(t *testing.T) *oplog.Log {
	t.Helper()
	cfg := defaultCfg(RollingUpdate)
	cfg.MaxRetries = 2
	r := newRig(t, cfg)
	r.registerFill(t)
	r.mgr.EnableRecorder(1 << 14)
	r.dev.SetFaultInjector(fault.NewInjector(1, r.clock,
		fault.EveryK(fault.OpDMAH2D, 2, fault.KindTransient),
		fault.After(fault.OpDMAD2H, 2, fault.KindTransient)))
	a, err := r.mgr.Alloc(128 << 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.mgr.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128<<10)
	for i := 0; i < 4 && !r.mgr.DeviceLost(); i++ {
		// Errors are the point of the schedule; the counters below say
		// whether it did what it is for.
		_ = r.mgr.HostWrite(a, buf)
		_ = r.mgr.Invoke("fill", uint64(a), 16, uint64(i))
		_ = r.mgr.Sync()
		_ = r.mgr.HostRead(a, buf)
	}
	if err := r.mgr.HostWrite(b, buf[:4096]); err != nil {
		t.Fatalf("host write to a degraded object: %v", err)
	}
	l, err := r.mgr.FinishOpLog("chaos")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Retries", "RetryGiveups", "DeviceLostEvents"} {
		if l.Totals[name] == 0 {
			t.Fatalf("chaos schedule produced no %s: %v", name, l.Totals)
		}
	}
	if l.Totals["DegradedObjects"] != 2 {
		t.Fatalf("DegradedObjects = %d, want 2", l.Totals["DegradedObjects"])
	}
	return l
}

// TestFoldReproducesTotals: the op stream is the truth. Folding a recorded
// stream with apply reproduces the recorded run's counters — for the
// committed corpus, the mixed workload under each protocol, and a chaos run
// — on every counter apply derives; and every Stats counter either has a
// fold rule or is named in unfoldedCounters, never both.
func TestFoldReproducesTotals(t *testing.T) {
	// Probe the fold with one op of every kind and flag to learn which
	// counters it can move.
	var probe statsCounters
	for k := oplog.Kind(1); k.Valid(); k++ {
		for _, flags := range []uint8{0, 0xff} {
			probe.apply(oplog.Op{Kind: k, Flags: flags, Size: 1, Arg: 2}, nil)
		}
	}
	folds := probe.load().Counters()
	for name := range (Stats{}).Counters() {
		excepted := slices.Contains(unfoldedCounters, name)
		switch {
		case folds[name] == 0 && !excepted:
			t.Errorf("Stats.%s has neither a fold rule in apply nor an entry in unfoldedCounters", name)
		case folds[name] != 0 && excepted:
			t.Errorf("Stats.%s is folded by apply and listed in unfoldedCounters", name)
		}
	}
	for _, name := range unfoldedCounters {
		if _, ok := reflect.TypeOf(Stats{}).FieldByName(name); !ok {
			t.Errorf("unfoldedCounters names %s, which is not a Stats field", name)
		}
	}

	check := func(t *testing.T, l *oplog.Log) {
		t.Helper()
		folded := foldOps(l.Ops)
		for name, got := range folded {
			if slices.Contains(unfoldedCounters, name) {
				continue
			}
			if want := l.Totals[name]; got != want {
				t.Errorf("%s: fold of %d ops = %d, recorded total %d", name, len(l.Ops), got, want)
			}
		}
	}

	files, err := filepath.Glob("../../testdata/corpus/*.oplog")
	if err != nil || len(files) != 21 {
		t.Fatalf("corpus: %d streams (err %v), want 21", len(files), err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			l, err := oplog.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			check(t, l)
		})
	}
	for _, kind := range []ProtocolKind{BatchUpdate, LazyUpdate, RollingUpdate} {
		t.Run("workload/"+kind.String(), func(t *testing.T) {
			r := newRig(t, defaultCfg(kind))
			r.mgr.EnableRecorder(1 << 16)
			driveWorkload(t, r)
			l, err := r.mgr.FinishOpLog("fold")
			if err != nil {
				t.Fatal(err)
			}
			check(t, l)
		})
	}
	t.Run("chaos", func(t *testing.T) { check(t, recordChaos(t)) })
}

// counterFamilyNames are the adsm_*_total families /adsm/metrics has always
// exported; the set is pinned.
var counterFamilyNames = []string{
	"adsm_allocs_total", "adsm_bytes_d2h_total", "adsm_bytes_h2d_total",
	"adsm_degraded_objects_total", "adsm_device_lost_total", "adsm_evictions_total",
	"adsm_fault_batches_total", "adsm_faults_total", "adsm_fetch_elisions_total",
	"adsm_flush_elisions_total", "adsm_frees_total", "adsm_invokes_total",
	"adsm_mode_migrations_total", "adsm_prefetched_blocks_total",
	"adsm_races_detected_total", "adsm_read_faults_total", "adsm_retries_total",
	"adsm_retry_giveups_total", "adsm_syncs_total", "adsm_transfers_d2h_total",
	"adsm_transfers_h2d_total", "adsm_write_faults_total",
}

// TestMetricFamiliesTrackStats: over a run, every adsm_*_total{protocol=p}
// family moves by exactly what the manager's Stats counter feeding it
// moved, and the families are today's 22 names.
func TestMetricFamiliesTrackStats(t *testing.T) {
	reg := metrics.Default()
	for _, kind := range []ProtocolKind{BatchUpdate, LazyUpdate, RollingUpdate} {
		t.Run(kind.String(), func(t *testing.T) {
			r := newRig(t, defaultCfg(kind))
			before := reg.Snapshot().Counters
			driveWorkload(t, r)
			after := reg.Snapshot().Counters
			stats := reflect.ValueOf(r.mgr.Stats())
			suffix := "{protocol=" + kind.String() + "}"

			var families []string
			sv := reflect.ValueOf(&r.mgr.stats).Elem()
			for i := 0; i < sv.NumField(); i++ {
				fam := sv.Field(i).Addr().Interface().(*counter).family
				if fam == nil {
					continue
				}
				field := sv.Type().Field(i).Name
				name := ""
				for n := range after {
					if strings.HasSuffix(n, suffix) && reg.Counter(n) == fam {
						name = n
					}
				}
				if name == "" {
					t.Errorf("Stats.%s feeds a counter the registry does not export under %s", field, suffix)
					continue
				}
				families = append(families, strings.TrimSuffix(name, suffix))
				if got, want := after[name]-before[name], stats.FieldByName(field).Int(); got != want {
					t.Errorf("%s moved by %d, Stats.%s by %d", name, got, field, want)
				}
			}
			slices.Sort(families)
			if !slices.Equal(families, counterFamilyNames) {
				t.Errorf("published families:\n got %v\nwant %v", families, counterFamilyNames)
			}
			for n := range after {
				if strings.HasPrefix(n, "adsm_") && strings.HasSuffix(n, "_total"+suffix) &&
					!slices.Contains(families, strings.TrimSuffix(n, suffix)) {
					t.Errorf("%s is exported but fed by no Stats counter", n)
				}
			}
			if st := r.mgr.Stats(); st.BytesH2D == 0 || (st.Faults == 0 && kind != BatchUpdate) {
				t.Fatalf("workload moved nothing: %+v", st)
			}
		})
	}
}

// traceKindOf is the test's statement of which op kinds have a trace event.
var traceKindOf = map[oplog.Kind]trace.Kind{
	oplog.OpAlloc: trace.EvAlloc, oplog.OpFree: trace.EvFree,
	oplog.OpFault: trace.EvFault, oplog.OpFetch: trace.EvFetch,
	oplog.OpFlush: trace.EvFlush, oplog.OpEvict: trace.EvEvict,
	oplog.OpInvoke: trace.EvInvoke, oplog.OpSync: trace.EvSync,
	oplog.OpRetry: trace.EvRetry, oplog.OpDegrade: trace.EvDegrade,
	oplog.OpDeviceLost: trace.EvDeviceLost,
}

// TestTraceEventsAreRenderedOps: with a tracer and a recorder both on, the
// trace events other than block-state transitions are, one for one and in
// order, the ops of the kinds that have an event, with the op's time and
// range.
func TestTraceEventsAreRenderedOps(t *testing.T) {
	cfg := defaultCfg(RollingUpdate)
	cfg.FixedRolling = 2 // small cache: the workload's writes evict
	r := newRig(t, cfg)
	lg := trace.New(1 << 14)
	r.mgr.SetTracer(lg)
	r.mgr.EnableRecorder(1 << 16)
	driveWorkload(t, r)
	l, err := r.mgr.FinishOpLog("trace")
	if err != nil {
		t.Fatal(err)
	}
	var events []trace.Event
	for _, e := range lg.Events() {
		if e.Kind != trace.EvTransition {
			events = append(events, e)
		}
	}
	seen := map[trace.Kind]bool{}
	i := 0
	for _, op := range l.Ops {
		kind, ok := traceKindOf[op.Kind]
		if !ok {
			continue
		}
		if i == len(events) {
			t.Fatalf("op %v has no trace event (%d events)", op, len(events))
		}
		e := events[i]
		i++
		if e.Kind != kind || e.At != op.At || e.Addr != op.Addr || e.Size != op.Size {
			t.Fatalf("event %d = %v, want the rendering of op %v", i-1, e, op)
		}
		seen[kind] = true
	}
	if i != len(events) {
		t.Fatalf("%d trace events beyond the ops: %v", len(events)-i, events[i])
	}
	for _, k := range []trace.Kind{trace.EvAlloc, trace.EvFree, trace.EvFault, trace.EvFetch,
		trace.EvFlush, trace.EvEvict, trace.EvInvoke, trace.EvSync} {
		if !seen[k] {
			t.Errorf("workload produced no %v event", k)
		}
	}
}
