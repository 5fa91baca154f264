package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// spec is BENCHMARK.json: the one place the workloads, the metric names,
// their units, directions and regression bounds are fixed.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec() (*spec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	s := &spec{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares the runs of a change (b) with the runs of its parent (a)
// on one metric. The change is worse when its median is worse than the
// parent's by more than the bound. Where either side's own run-to-run
// spread exceeds the bound the medians cannot carry a verdict: the metric
// is unresolved, unless every run of one side beats every run of the other.
func judge(a, b []float64, m metricSpec) verdict {
	if len(a) == 0 || len(b) == 0 {
		return unresolved
	}
	sign := 1.0 // lower is better
	if m.Better == "higher" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	if ma == 0 {
		return unresolved
	}
	rel := sign * (mb - ma) / ma // > 0: b is worse
	if spread(a) > m.Bound || spread(b) > m.Bound {
		aBest, aWorst := extremes(a, sign)
		bBest, bWorst := extremes(b, sign)
		switch {
		case bWorst < aBest:
			return better
		case bBest > aWorst && rel > m.Bound:
			return worse
		}
		return unresolved
	}
	switch {
	case rel > m.Bound:
		return worse
	case rel < -m.Bound:
		return better
	}
	return same
}

// extremes returns the best and the worst of xs, oriented so that smaller
// is better.
func extremes(xs []float64, sign float64) (best, worst float64) {
	best, worst = sign*xs[0], sign*xs[0]
	for _, x := range xs {
		best, worst = min(best, sign*x), max(worst, sign*x)
	}
	return best, worst
}

// runCompare prints a verdict for every workload × end-to-end metric of two
// results.json files, using the bounds of BENCHMARK.json, and returns 1 if
// any is worse.
func runCompare(pathA, pathB string) int {
	sp, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	load := func(path string) *report {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		r := &report{}
		if err := json.Unmarshal(data, r); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		return r
	}
	a, b := load(pathA), load(pathB)
	sameSeed := a.Seed == b.Seed
	regressions := 0
	fmt.Printf("%-13s %-14s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "spread", "verdict")
	for _, w := range sp.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Printf("%-13s missing from one file\n", w.Name)
			regressions++
			continue
		}
		for _, m := range sp.EndToEnd {
			ra, rb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if ra == nil || rb == nil {
				fmt.Printf("%-13s %-14s missing from one file\n", w.Name, m.Name)
				regressions++
				continue
			}
			v := judge(ra.Values, rb.Values, m)
			note := ""
			if sameSeed && slices.Contains(exactMetrics, m.Name) && ra.Median != rb.Median && v != worse {
				// Simulated metrics repeat bit-exactly for one seed: any
				// difference is a model change, however small.
				note = " (simulated value changed)"
			}
			if v == worse {
				regressions++
			}
			change := 0.0
			if ra.Median != 0 {
				change = 100 * (rb.Median - ra.Median) / ra.Median
			}
			fmt.Printf("%-13s %-14s %14.6f %14.6f %+7.2f%% %6.1f%% %6.2f%%  %s%s\n", w.Name, m.Name,
				ra.Median, rb.Median, change, 100*m.Bound, 100*max(spread(ra.Values), spread(rb.Values)), v, note)
		}
		if wb.Failed > wa.Failed {
			fmt.Printf("%-13s failed operations rose from %d to %d\n", w.Name, wa.Failed, wb.Failed)
			regressions++
		}
	}
	if regressions > 0 {
		fmt.Printf("%d regression(s)\n", regressions)
		return 1
	}
	fmt.Println("no regression")
	return 0
}
