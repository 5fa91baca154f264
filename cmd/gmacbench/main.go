// Command gmacbench regenerates the tables and figures of the paper's
// evaluation (Section 5) on the simulated testbed.
//
// Usage:
//
//	gmacbench [-small] [-json FILE] [-cpuprofile FILE] [-debug.addr ADDR [-debug.hold]] <experiment>...
//	gmacbench [-small] [-hostthreads N] [-faults [-faults.seed N]] [-record DIR] [<experiment>...]
//
// where experiment is one of: fig2, table2, porting, fig7, fig8, fig10,
// fig9, fig11, fig12, ablations, modes, all. The -small flag runs the
// unit-test scale (fast smoke run); the default is evaluation scale.
// -hostthreads, -faults and -record run before any experiments, which
// they make optional.
//
// -json FILE writes a machine-readable summary of the evaluation runs
// (workload, protocol, virtual time, key counters) so the performance
// trajectory can be tracked across changes; if no evaluation experiment
// was requested, the evaluation sweep is run for the summary alone.
//
// -cpuprofile FILE writes a CPU profile of the whole run for go tool pprof
// (`make profile EXP=all` runs the evaluation-scale sweep under it and
// prints the top table).
//
// -debug.addr ADDR starts the live introspection endpoint (see
// docs/observability.md): curl ADDR/adsm/stats while the run is in
// flight. -debug.hold keeps the process (and the endpoint) alive after
// the experiments finish, until interrupted.
//
// -record DIR records the workload suite's op streams as .oplog files —
// `make record-corpus` uses it to regenerate testdata/corpus/, which the
// chaos suite replays under fault injection (see docs/testing.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"sync"

	"repro/gmac"
	"repro/internal/figures"
	"repro/internal/workloads"
)

func main() {
	small := flag.Bool("small", false, "run at unit-test scale (fast smoke run)")
	faults := flag.Bool("faults", false, "run workloads under a deterministic fault-injection schedule and report recovery overhead")
	faultSeed := flag.Int64("faults.seed", 1, "injector `seed` for -faults (replays exactly)")
	hostThreads := flag.Int("hostthreads", 0, "run the concurrent fault-throughput benchmark with `N` host goroutines")
	jsonOut := flag.String("json", "", "write a machine-readable benchmark summary to `file`")
	recordDir := flag.String("record", "", "record the workloads' op streams as .oplog files into `dir` (the chaos-replay corpus; honours -small)")
	debugAddr := flag.String("debug.addr", "", "serve live introspection endpoints on `addr` (e.g. localhost:6060)")
	debugHold := flag.Bool("debug.hold", false, "with -debug.addr: keep serving after the run finishes")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to `file` (go tool pprof)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gmacbench [-small] [-json file] [-cpuprofile file] [-debug.addr addr [-debug.hold]] [-hostthreads N] [-faults [-faults.seed N]] [-record dir] <fig2|table2|porting|fig7|fig8|fig10|fig9|fig11|fig12|ablations|modes|all>...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	stopProfile, err := startCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmacbench:", err)
		os.Exit(1)
	}
	defer stopProfile()
	// exit ends the process with code, after flushing the CPU profile.
	exit := func(code int) {
		stopProfile()
		os.Exit(code)
	}
	if *recordDir != "" {
		if err := runRecord(*recordDir, *small); err != nil {
			fmt.Fprintln(os.Stderr, "gmacbench:", err)
			exit(1)
		}
		if len(args) == 0 {
			return
		}
	}
	if *faults {
		if err := runFaults(*small, *faultSeed); err != nil {
			fmt.Fprintln(os.Stderr, "gmacbench:", err)
			exit(1)
		}
		if len(args) == 0 && *hostThreads == 0 {
			return
		}
	}
	if *hostThreads > 0 {
		if err := runHostThreads(*hostThreads, *small); err != nil {
			fmt.Fprintln(os.Stderr, "gmacbench:", err)
			exit(1)
		}
		if len(args) == 0 {
			return
		}
	}
	if len(args) == 0 {
		flag.Usage()
		exit(2)
	}
	want := map[string]bool{}
	for _, a := range args {
		if a == "all" {
			for _, k := range []string{"fig2", "table2", "porting", "fig7", "fig8", "fig10", "fig9", "fig11", "fig12", "ablations", "modes"} {
				want[k] = true
			}
			continue
		}
		want[strings.ToLower(a)] = true
	}

	if *debugAddr != "" {
		// Auto-trace new contexts so /adsm/trace has spans to serve.
		gmac.EnableAutoTrace(8192)
		srv, err := gmac.EnableDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmacbench:", err)
			exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "gmacbench: introspection at http://%s/adsm/stats\n", srv.Addr())
	}

	if err := run(os.Stdout, want, *small, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "gmacbench:", err)
		exit(1)
	}

	stopProfile()
	if *debugAddr != "" && *debugHold {
		fmt.Fprintf(os.Stderr, "gmacbench: experiments done; holding introspection endpoint (interrupt to exit)\n")
		select {}
	}
}

// startCPUProfile starts a CPU profile into path (none if path is empty)
// and returns the function that stops and flushes it; calls after the
// first do nothing.
func startCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return sync.OnceFunc(func() {
		pprof.StopCPUProfile()
		f.Close()
	}), nil
}

// benchEntry is one row of the -json summary: a BENCH_*.json-compatible
// record of one workload under one programming-model variant.
type benchEntry struct {
	Name         string  `json:"name"`
	Workload     string  `json:"workload"`
	Variant      string  `json:"variant"`
	TimeNs       int64   `json:"time_ns"`
	Seconds      float64 `json:"seconds"`
	BytesH2D     int64   `json:"bytes_h2d"`
	BytesD2H     int64   `json:"bytes_d2h"`
	TransfersH2D int64   `json:"transfers_h2d"`
	TransfersD2H int64   `json:"transfers_d2h"`
	Faults       int64   `json:"faults"`
	Evictions    int64   `json:"evictions"`
	Retries      int64   `json:"retries"`
	RetryGiveups int64   `json:"retry_giveups"`
	Degraded     int64   `json:"degraded_objects"`
	FaultP50Ns   int64   `json:"fault_p50_ns,omitempty"`
	FaultP95Ns   int64   `json:"fault_p95_ns,omitempty"`
	FaultP99Ns   int64   `json:"fault_p99_ns,omitempty"`
	Checksum     float64 `json:"checksum"`
}

// benchDoc is the -json file shape.
type benchDoc struct {
	Schema  string       `json:"schema"`
	Scale   string       `json:"scale"`
	Results []benchEntry `json:"results"`
}

func entriesFromRuns(runs []figures.EvalRun) []benchEntry {
	var out []benchEntry
	for _, r := range runs {
		for _, v := range []workloads.Variant{
			workloads.VariantCUDA, workloads.VariantBatch,
			workloads.VariantLazy, workloads.VariantRolling,
		} {
			rep, ok := r.Reports[v]
			if !ok {
				continue
			}
			out = append(out, benchEntry{
				Name:         r.Benchmark + "/" + string(v),
				Workload:     r.Benchmark,
				Variant:      string(v),
				TimeNs:       int64(rep.Time),
				Seconds:      rep.Time.Seconds(),
				BytesH2D:     rep.Dev.BytesH2D,
				BytesD2H:     rep.Dev.BytesD2H,
				TransfersH2D: rep.GMAC.TransfersH2D,
				TransfersD2H: rep.GMAC.TransfersD2H,
				Faults:       rep.GMAC.Faults,
				Evictions:    rep.GMAC.Evictions,
				Retries:      rep.GMAC.Retries,
				RetryGiveups: rep.GMAC.RetryGiveups,
				Degraded:     rep.GMAC.DegradedObjects,
				FaultP50Ns:   rep.FaultP50Ns,
				FaultP95Ns:   rep.FaultP95Ns,
				FaultP99Ns:   rep.FaultP99Ns,
				Checksum:     rep.Checksum,
			})
		}
	}
	return out
}

func writeBenchJSON(path string, small bool, entries []benchEntry) error {
	scale := "full"
	if small {
		scale = "small"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(benchDoc{Schema: "gmacbench/v1", Scale: scale, Results: entries}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run prints the requested experiments to w and, with jsonOut set, writes
// the evaluation summary there.
func run(w io.Writer, want map[string]bool, small bool, jsonOut string) error {
	known := map[string]bool{
		"fig2": true, "table2": true, "porting": true, "fig7": true,
		"fig8": true, "fig10": true, "fig9": true, "fig11": true,
		"fig12": true, "ablations": true, "modes": true,
	}
	for k := range want {
		if !known[k] {
			return fmt.Errorf("unknown experiment %q", k)
		}
	}

	if want["fig2"] {
		fmt.Fprintln(w, figures.Fig2())
		fmt.Fprintln(w, figures.Fig2Plot().Render())
	}
	if want["table2"] {
		fmt.Fprintln(w, figures.Table2())
	}
	if want["porting"] {
		rows, err := figures.Porting()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, figures.PortingTable(rows))
	}
	if want["fig7"] || want["fig8"] || want["fig10"] || jsonOut != "" {
		runs, err := figures.RunEvaluation(small)
		if err != nil {
			return err
		}
		if want["fig7"] {
			fmt.Fprintln(w, figures.Fig7(runs))
		}
		if want["fig8"] {
			fmt.Fprintln(w, figures.Fig8(runs))
		}
		if want["fig10"] {
			fmt.Fprintln(w, figures.Fig10(runs))
		}
		if jsonOut != "" {
			if err := writeBenchJSON(jsonOut, small, entriesFromRuns(runs)); err != nil {
				return fmt.Errorf("writing %s: %w", jsonOut, err)
			}
			fmt.Fprintf(os.Stderr, "gmacbench: wrote benchmark summary to %s\n", jsonOut)
		}
	}
	if want["fig9"] {
		sizes, blocks := figures.Fig9Params(small)
		rows, err := figures.Fig9Rows(sizes, blocks)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, figures.Fig9TableFrom(rows, blocks))
		fmt.Fprintln(w, figures.Fig9PlotFrom(rows, blocks).Render())
	}
	if want["fig11"] {
		n, blocks := figures.Fig11Params(small)
		rows, err := figures.Fig11(n, blocks)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, figures.Fig11Table(rows))
		fmt.Fprintln(w, figures.Fig11Plot(rows).Render())
	}
	if want["fig12"] {
		bench, blocks, sizes := figures.Fig12Params(small)
		rows, err := figures.Fig12(bench, blocks, sizes)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, figures.Fig12Table(rows))
		fmt.Fprintln(w, figures.Fig12Plot(rows).Render())
	}
	if want["ablations"] {
		for _, ab := range []func() (*figures.Table, error){
			figures.AblationAnnotations,
			figures.AblationPeerDMA,
			figures.AblationVirtualMemory,
		} {
			tab, err := ab()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, tab)
		}
	}
	if want["modes"] {
		rows, err := figures.ModesRows(small)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, figures.ModesTable(rows))
	}
	return nil
}
