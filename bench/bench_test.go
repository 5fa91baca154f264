package main

import (
	"regexp"
	"syscall"
	"testing"
	"time"
)

// testScale runs every workload at a hundredth of its measured size.
const testScale = 0.01

func runScaled(t *testing.T, name string, seed uint64, traced bool, prepare func(*harness)) *result {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	h := newHarness(time.Now(), seed, testScale, traced)
	if prepare != nil {
		prepare(h)
	}
	return runWorkload(w, h)
}

// simulated returns everything a run reports that is simulated rather than
// timed, and must therefore repeat bit-exactly.
func simulated(r *result) map[string]float64 {
	timed := regexp.MustCompile(`^(proc|bench|phase|workloads)\.`)
	out := map[string]float64{"virt_s": r.E2E["virt_s"], "pcie_bytes": r.E2E["pcie_bytes"],
		"attempted": float64(r.Attempted), "samples": float64(r.Samples)}
	for k, v := range r.Layer {
		if !timed.MatchString(k) {
			out[k] = v
		}
	}
	return out
}

func TestWorkloadsRepeatAndVerify(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			a := runScaled(t, w.name, 1, false, nil)
			b := runScaled(t, w.name, 1, false, nil)
			for _, r := range []*result{a, b} {
				if r.Failed != 0 {
					t.Fatalf("%d of %d operations failed: %s", r.Failed, r.Attempted, r.FirstErr)
				}
				for _, m := range []string{"setup_s", "wall_s", "access_p50_us", "access_p99_us", "virt_s", "pcie_bytes", "ok_ops_ratio"} {
					if r.E2E[m] <= 0 {
						t.Errorf("%s = %v, want > 0", m, r.E2E[m])
					}
				}
			}
			sa, sb := simulated(a), simulated(b)
			for k, v := range sa {
				if sb[k] != v {
					t.Errorf("seed 1 twice: %s = %v then %v", k, v, sb[k])
				}
			}
			if w.name == "parboil-eval" {
				return // at test scale the sweep has no seeded input
			}
			c := simulated(runScaled(t, w.name, 2, false, nil))
			same := true
			for k, v := range sa {
				same = same && c[k] == v
			}
			if same {
				t.Errorf("seed 2 simulated exactly what seed 1 did: the seed does not reach the inputs")
			}
		})
	}
}

func TestCorruptedModelIsAFailedOp(t *testing.T) {
	r := runScaled(t, "fault-storm", 1, false, func(h *harness) { h.corruptModel = true })
	if r.Failed == 0 || r.E2E["ok_ops_ratio"] >= 1 {
		t.Fatalf("a corrupted model byte went unnoticed: failed=%d ok_ops_ratio=%v", r.Failed, r.E2E["ok_ops_ratio"])
	}
	if r.FirstErr == "" {
		t.Error("failed run reports no first error")
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]int32, 1000)
	for i := range xs {
		xs[i] = int32(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if _, err := percentile(xs, 99.9); err == nil {
		t.Error("p99.9 of 1000 samples has one sample beyond it and must be refused")
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples has nine beyond it and must be refused")
	}
	if _, err := percentile(xs[:20], 50); err != nil {
		t.Errorf("p50 of 20 samples has ten beyond it: %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ok_ops_ratio", Better: "higher", Bound: 0.001}
	base := []float64{7.40, 7.45, 7.50, 7.42, 7.48}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		a, b []float64
		m    metricSpec
		want verdict
	}{
		{"A/A", base, base, lower, same},
		{"+5% is inside the bound", base, scale(base, 1.05), lower, same},
		{"+20%", base, scale(base, 1.20), lower, worse},
		{"-20%", base, scale(base, 0.80), lower, better},
		{"noisy and overlapping", []float64{6, 7.5, 9, 7, 8}, []float64{6.5, 8, 9.5, 7.2, 8.4}, lower, unresolved},
		{"noisy but every run better", []float64{6, 7.5, 9, 7, 8}, []float64{3, 4, 5, 3.5, 4.2}, lower, better},
		{"noisy and every run worse", []float64{6, 7.5, 9, 7, 8}, []float64{12, 14, 18, 13, 15}, lower, worse},
		{"two failed ops in a thousand", []float64{1, 1, 1}, []float64{0.998, 0.998, 0.998}, higher, worse},
		{"failures in some runs only", []float64{1, 1, 1}, []float64{1, 0.998, 0.998}, higher, unresolved},
		{"no runs", base, nil, lower, unresolved},
	} {
		if got := judge(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSpecNames holds BENCHMARK.json against what the harness reports: every
// end-to-end metric on every workload, every per-layer metric on at least
// one, nothing reported that the spec does not name, and every name and
// unit within the contract's alphabet.
func TestSpecNames(t *testing.T) {
	if err := chdirRoot(); err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	e2e, layer := map[string]bool{}, map[string]bool{}
	for _, m := range sp.EndToEnd {
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range sp.PerLayer {
		layer[m.Name] = true
	}
	for _, m := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v is outside the contract's alphabet", m)
		}
	}
	if !e2e["setup_s"] || len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Errorf("spec shape: setup_s=%v, %d end-to-end, %d per-layer", e2e["setup_s"], len(sp.EndToEnd), len(sp.PerLayer))
	}
	if len(sp.Workloads) != len(allWorkloads) {
		t.Fatalf("spec names %d workloads, the harness has %d", len(sp.Workloads), len(allWorkloads))
	}

	// The ladder runs last: its ten 1 GiB testbeds leave a heap whose
	// recycling would slow every scaled run after it.
	reported := map[string]bool{}
	type pair struct{ plain, traced *result }
	var pairs []pair
	for i, w := range allWorkloads {
		if sp.Workloads[i].Name != w.name || len(sp.Workloads[i].Why) > 200 {
			t.Errorf("workload %d: spec %q (why: %d chars), harness %q", i, sp.Workloads[i].Name, len(sp.Workloads[i].Why), w.name)
		}
		plain := runScaled(t, w.name, 1, false, nil)
		traced := runScaled(t, w.name, 1, true, nil)
		for _, r := range []*result{plain, traced} {
			addRusage(r, &syscall.Rusage{Maxrss: 1})
		}
		for name := range e2e {
			if _, ok := plain.E2E[name]; !ok {
				t.Errorf("%s does not report end-to-end metric %s", w.name, name)
			}
		}
		for name := range plain.E2E {
			if !e2e[name] {
				t.Errorf("%s reports end-to-end metric %s, which BENCHMARK.json does not name", w.name, name)
			}
		}
		if len(traced.Self) == 0 {
			t.Errorf("%s: traced run has no self-time table", w.name)
		}
		pairs = append(pairs, pair{plain, traced})
	}
	ladder := runLadder(200 * time.Millisecond)
	if f := ladder["core.replay_failed"]; f != 0 {
		t.Errorf("%v corpus streams failed to replay", f)
	}
	if c := ladder["core.ladder_cover_pct"]; c <= 0 || c > 100 {
		t.Errorf("core.ladder_cover_pct = %v: the rungs cannot cost more than the fault they add up to", c)
	}
	for _, p := range pairs {
		for name := range mergeLayers(p.plain, p.traced, ladder) {
			reported[name] = true
			if !layer[name] {
				t.Errorf("%s reports per-layer metric %s, which BENCHMARK.json does not name", p.plain.Workload, name)
			}
		}
	}
	for name := range layer {
		if !reported[name] {
			t.Errorf("no workload reports per-layer metric %s", name)
		}
	}
}
