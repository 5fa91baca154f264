// Command bench is the repository's two-clock benchmark: four workloads
// measured end to end on the host clock and the simulated clock, and a
// ladder of per-layer unit costs. BENCHMARK.json at the repository root
// names its workloads, metrics, units and regression bounds; README.md in
// this directory explains the choices.
//
//	bash bench/run.sh                                  every workload, tables + bench/out/results.json
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                                   one workload, one JSON result line (the contract)
//	bash bench/run.sh -compare a.json b.json           verdict per workload × end-to-end metric
//
// Every run of a workload is a re-exec'd child process, so resident memory
// and CPU times are the run's own and the 1 GiB device memories that
// internal/core keeps reachable cannot accumulate.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// childTimeout bounds one child run; a child that exceeds it is killed and
// recorded as a failed run.
const childTimeout = 60 * time.Second

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print one JSON result line (default: all, with tables)")
		seed         = flag.Uint64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", 0, "with -workload: keep starting runs while the next one fits in this many seconds (at least 3 runs)")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics from a traced run and the ladder")
		runs         = flag.Int("runs", 5, "without -workload: untraced runs per workload")
		compare      = flag.Bool("compare", false, "compare two results.json files given as arguments; exit 1 on any regression")
		child        = flag.String("child", "", "internal: run one child (run|ladder) and print its JSON")
		started      = flag.Int64("started", 0, "internal: when the parent started this child, Unix ns")
		budget       = flag.Float64("ladder-seconds", 10, "internal: time budget of the ladder child")
	)
	flag.Parse()
	if err := chdirRoot(); err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare a.json b.json"))
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case *child != "":
		os.Exit(runChild(*child, *workloadName, *seed, *trace != 0, *started, *budget))
	case *workloadName != "":
		os.Exit(runContract(*workloadName, *seed, *seconds, *trace != 0))
	default:
		os.Exit(runAll(*seed, *runs))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// chdirRoot moves to the repository root (the directory holding
// BENCHMARK.json), so that the corpus, the spec and bench/out resolve the
// same whether the program was started from the root or from bench/.
func chdirRoot() error {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return os.Chdir(dir)
		}
	}
	return errors.New("BENCHMARK.json not found in . or ..; run from the repository root")
}

const outDir = "bench/out"

// ---------------------------------------------------------------- child side

// runChild is the body of a re-exec'd child: one workload run or the
// ladder, reported as one JSON line on standard output.
func runChild(kind, name string, seed uint64, traced bool, started int64, ladderSeconds float64) int {
	t0 := time.Now()
	if started != 0 {
		t0 = time.Unix(0, started)
	}
	var out any
	switch kind {
	case "run":
		w, ok := findWorkload(name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		h := newHarness(t0, seed, 1, traced)
		res := runWorkload(w, h)
		if traced {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				fatal(err)
			}
			if err := h.tr.writeChrome(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
				fatal(err)
			}
		}
		out = res
	case "ladder":
		out = runLadder(time.Duration(ladderSeconds * float64(time.Second)))
	default:
		fatal(fmt.Errorf("unknown child kind %q", kind))
	}
	data, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
	return 0
}

// ---------------------------------------------------------------- parent side

// spawn re-executes this binary as a child and decodes the JSON line it
// prints into out. It returns the child's resource usage.
func spawn(out any, args ...string) (*syscall.Rusage, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args = append(args, "-started", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	timer := time.AfterFunc(childTimeout, func() { _ = cmd.Process.Kill() }) // Kill only fails on an already-reaped child
	err = cmd.Wait()
	if !timer.Stop() {
		return nil, fmt.Errorf("child %v killed after %v", args, childTimeout)
	}
	if err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	line := bytes.TrimSpace(stdout.Bytes())
	if i := bytes.LastIndexByte(line, '\n'); i >= 0 {
		line = line[i+1:]
	}
	if err := json.Unmarshal(line, out); err != nil {
		return nil, fmt.Errorf("child %v printed no result: %w", args, err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, nil
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// spawnRun runs one workload run in a child and completes its result with
// the process-level figures. A child that dies or times out yields a result
// with one failed operation, so the failure is counted, not lost, and the
// error, so the caller can stop starting runs that will not finish.
func spawnRun(name string, seed uint64, traced bool) (*result, error) {
	res := &result{}
	tr := "0"
	if traced {
		tr = "1"
	}
	ru, err := spawn(res, "-child", "run", "-workload", name, "-seed", strconv.FormatUint(seed, 10), "-trace", tr)
	if err != nil {
		return &result{Workload: name, Seed: seed, Traced: traced, Attempted: 1, Failed: 1, FirstErr: err.Error(),
			E2E: map[string]float64{}, Layer: map[string]float64{}}, err
	}
	addRusage(res, ru)
	return res, nil
}

// addRusage completes a run's result with what only the parent can see:
// the child's peak resident memory, CPU times and page faults.
func addRusage(res *result, ru *syscall.Rusage) {
	if ru == nil {
		return
	}
	res.E2E["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	res.Layer["proc.cpu_user_s"] = tv(ru.Utime)
	res.Layer["proc.cpu_sys_s"] = tv(ru.Stime)
	res.Layer["proc.page_faults"] = float64(ru.Minflt)
}

// set is the untraced runs of one workload at one seed.
type set struct {
	runs []*result
}

// values returns one end-to-end metric across the runs.
func (s *set) values(metric string) []float64 {
	xs := make([]float64, 0, len(s.runs))
	for _, r := range s.runs {
		if v, ok := r.E2E[metric]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// exactMetrics must read the same on every run of one workload at one
// seed: they are simulated, not timed.
var exactMetrics = []string{"virt_s", "pcie_bytes"}

// checkExact counts a failed check for every simulated metric that did not
// repeat bit-exactly across the set's runs.
func (s *set) checkExact() {
	first := s.runs[0]
	for _, r := range s.runs[1:] {
		for _, m := range exactMetrics {
			first.Attempted++
			if r.E2E[m] != first.E2E[m] {
				first.Failed++
				if first.FirstErr == "" {
					first.FirstErr = fmt.Sprintf("%s: %s did not repeat: %v then %v", r.Workload, m, first.E2E[m], r.E2E[m])
				}
			}
		}
	}
}

// measure makes untraced runs of one workload: exactly n when n > 0,
// otherwise as many as fit in the time budget, and never fewer than three.
func measure(name string, seed uint64, n int, budget time.Duration) *set {
	s := &set{}
	start := time.Now()
	for {
		t := time.Now()
		r, err := spawnRun(name, seed, false)
		s.runs = append(s.runs, r)
		if err != nil {
			break // a dead or hung child: more of them would only run out the clock
		}
		done := len(s.runs)
		if n > 0 && done >= n {
			break
		}
		if n == 0 && done >= 3 && time.Since(start)+time.Since(t) > budget {
			break
		}
	}
	s.checkExact()
	return s
}

// mergeLayers builds a workload's per-layer metric map: counts and process
// figures from the untraced run, phase times from the traced one, unit
// costs from the ladder, and the tracing overhead from the two wall times.
func mergeLayers(plain, traced *result, ladder map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range plain.Layer {
		out[k] = v
	}
	for k, v := range traced.Layer {
		if _, ok := out[k]; !ok {
			out[k] = v // phase times: only the traced run has them
		}
	}
	for k, v := range ladder {
		out[k] = v
	}
	if w := plain.E2E["wall_s"]; w > 0 {
		out["bench.trace_overhead_pct"] = 100 * (traced.E2E["wall_s"] - w) / w
	}
	return out
}

func spawnLadder(budget time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	_, err := spawn(&out, "-child", "ladder", "-ladder-seconds", strconv.FormatFloat(budget.Seconds(), 'f', 1, 64))
	return out, err
}

// contractLine is the last line the contract's driver reads.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is bench/out/results.json: every run's values, so that -compare
// can compute spreads, and the per-layer metrics of the traced runs.
type report struct {
	Schema    string                     `json:"schema"`
	Seed      uint64                     `json:"seed"`
	Runs      int                        `json:"runs_per_set"`
	Workloads map[string]*workloadReport `json:"workloads"`
	// Claim is what this measurement asserts about a change. The benchmark
	// itself claims nothing: it is the ruler.
	Claim *string `json:"claim"`
}

type workloadReport struct {
	EndToEnd  map[string]*metricReport `json:"end_to_end"`
	PerLayer  map[string]float64       `json:"per_layer"`
	Samples   int                      `json:"access_samples"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	FirstErr  string                   `json:"first_error,omitempty"`
}

type metricReport struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Values []float64 `json:"values"`
	Bound  float64   `json:"bound"`
}

// count folds one run's operation counts into the report.
func (wr *workloadReport) count(r *result) {
	wr.Attempted += r.Attempted
	wr.Failed += r.Failed
	if wr.FirstErr == "" {
		wr.FirstErr = r.FirstErr
	}
}

// endToEnd makes the untraced runs of one workload and reports, and prints,
// every end-to-end metric: median, unit, run count, spread and bound.
func (wr *workloadReport) endToEnd(sp *spec, name string, seed uint64, runs int, budget time.Duration) {
	s := measure(name, seed, runs, budget)
	for _, r := range s.runs {
		wr.count(r)
	}
	wr.Samples = s.runs[0].Samples
	wr.EndToEnd = map[string]*metricReport{}
	for _, m := range sp.EndToEnd {
		xs := s.values(m.Name)
		if len(xs) == 0 {
			wr.Failed++ // a metric no run reported
			continue
		}
		wr.EndToEnd[m.Name] = &metricReport{Unit: m.Unit, Median: median(xs), Values: xs, Bound: m.Bound}
		fmt.Printf("%-16s %14.6f %-6s n=%d spread=%.2f%% bound=%.1f%%\n",
			m.Name, median(xs), m.Unit, len(xs), 100*spread(xs), 100*m.Bound)
	}
	fmt.Printf("%-16s %14d timed host accesses per run\n", "samples", wr.Samples)
}

// perLayer makes the reference run and the traced run of one workload,
// merges them with the ladder's unit costs, and prints the traced run's
// self-time table.
func (wr *workloadReport) perLayer(name string, seed uint64, ladder map[string]float64) {
	plain, _ := spawnRun(name, seed, false) // a failed run carries its failure in the result
	traced, _ := spawnRun(name, seed, true)
	wr.count(plain)
	wr.count(traced)
	wr.PerLayer = mergeLayers(plain, traced, ladder)
	fmt.Printf("self time by span, traced run of %s (host accesses sampled 1 in %d):\n", name, spanSampleEvery)
	fmt.Printf("  %-28s %10s %12s %12s\n", "span", "count", "total s", "self s")
	for _, row := range traced.Self {
		fmt.Printf("  %-28s %10d %12.6f %12.6f\n", row.Name, row.Count, row.TotalS, row.SelfS)
	}
}

// runContract is the benchmark contract's entry point: one workload, one
// seed, and as its last line of output one JSON object with the end-to-end
// metrics (trace 0) or the per-layer metrics (trace 1).
func runContract(name string, seed uint64, seconds float64, traced bool) int {
	sp, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if _, ok := findWorkload(name); !ok {
		fatal(fmt.Errorf("unknown workload %q", name))
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	budget := time.Duration(seconds * float64(time.Second))
	wr := &workloadReport{}
	line := contractLine{Metrics: map[string]metricValue{}}
	if !traced {
		wr.endToEnd(sp, name, seed, 0, budget)
		for name, m := range wr.EndToEnd {
			line.Metrics[name] = metricValue{m.Median, m.Unit}
		}
	} else {
		// A third of the budget for the ladder; the reference run and the
		// traced run take what they take.
		ladder, err := spawnLadder(budget / 3)
		wr.Attempted++
		if err != nil {
			wr.Failed++
			wr.FirstErr = err.Error()
		}
		wr.Failed += int64(ladder["core.replay_failed"])
		wr.perLayer(name, seed, ladder)
		for _, m := range sp.PerLayer {
			line.Metrics[m.Name] = metricValue{wr.PerLayer[m.Name], m.Unit}
			fmt.Printf("%-32s %16.6f %s\n", m.Name, wr.PerLayer[m.Name], m.Unit)
		}
	}
	if wr.FirstErr != "" {
		fmt.Fprintln(os.Stderr, "bench: first failure:", wr.FirstErr)
	}
	line.Attempted, line.Failed, line.Correct = wr.Attempted, wr.Failed, wr.Failed == 0
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

// runAll measures every workload (runs untraced runs each, one traced run,
// the ladder once), prints every metric by name with its unit, and writes
// bench/out/results.json.
func runAll(seed uint64, runs int) int {
	sp, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	runs = max(runs, 3)
	rep := &report{Schema: "adsmbench/v1", Seed: seed, Runs: runs, Workloads: map[string]*workloadReport{}}
	ladder, err := spawnLadder(20 * time.Second)
	if err != nil {
		fatal(err)
	}
	failed := int64(ladder["core.replay_failed"])
	for _, w := range allWorkloads {
		fmt.Printf("== %s (seed %d, %d runs)\n", w.name, seed, runs)
		wr := &workloadReport{}
		wr.endToEnd(sp, w.name, seed, runs, 0)
		wr.perLayer(w.name, seed, ladder)
		for _, m := range sp.PerLayer {
			if _, isLadder := ladder[m.Name]; !isLadder {
				fmt.Printf("%-32s %16.6f %s\n", m.Name, wr.PerLayer[m.Name], m.Unit)
			}
		}
		if wr.FirstErr != "" {
			fmt.Println("first failure:", wr.FirstErr)
		}
		failed += wr.Failed
		rep.Workloads[w.name] = wr
	}
	fmt.Println("== ladder (unit cost of one public call per layer)")
	for _, m := range sp.PerLayer {
		if v, isLadder := ladder[m.Name]; isLadder {
			fmt.Printf("%-32s %16.6f %s\n", m.Name, v, m.Unit)
		}
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	summary, err := json.Marshal(struct {
		Results string  `json:"results"`
		Failed  int64   `json:"failed"`
		Claim   *string `json:"claim"`
	}{Results: path, Failed: failed})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(summary))
	if failed != 0 {
		return 1
	}
	return 0
}
