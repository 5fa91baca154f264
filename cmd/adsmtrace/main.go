// Command adsmtrace runs a small annotated scenario under a chosen
// coherence protocol and prints the runtime's event trace — a pedagogical
// view of the Figure 6 state machine in action: which accesses fault,
// which blocks move, when the rolling cache evicts.
//
// Usage:
//
//	adsmtrace [-protocol batch|lazy|rolling] [-block 16384] [-rolling 2]
//	          [-trace-json trace.json] [-report]
//	          [-record run.oplog] [-replay run.oplog]
//	          [-races path] [-races-json report.json]
//
// -trace-json exports the run's spans and events as Chrome trace_event
// JSON, loadable in chrome://tracing or https://ui.perfetto.dev.
// -report appends the metrics-registry report and the per-object table.
// -record captures the demo run's op stream to a binary .oplog file.
// -replay re-executes a recorded .oplog (from -record, the gmacbench
// corpus recorder, or a flight-recorder dump) against a fresh context
// built from the stream's header, and checks the replayed counters
// against the recorded totals (capture logs; flight dumps replay
// leniently and skip the check).
// -races runs the offline vector-clock race detector over a recorded
// .oplog file — or over every .oplog in a directory (the committed
// testdata/corpus, say) — printing both unordered access sites per race;
// -races-json additionally writes the reports as JSON. The exit status is
// 1 if any race was found, so CI can gate race-free corpora.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"repro/gmac"
	"repro/machine"
)

func main() {
	protoName := flag.String("protocol", "rolling", "coherence protocol: batch, lazy or rolling")
	blockSize := flag.Int64("block", 16<<10, "rolling-update block size in bytes")
	rolling := flag.Int("rolling", 2, "pinned rolling size (0 = adaptive)")
	traceJSON := flag.String("trace-json", "", "write Chrome trace_event JSON to `file`")
	report := flag.Bool("report", false, "print the metrics registry and per-object report")
	recordFile := flag.String("record", "", "record the run's op stream to `file` (binary .oplog)")
	replayFile := flag.String("replay", "", "replay a recorded .oplog `file` instead of running the demo")
	racesPath := flag.String("races", "", "run the offline race detector over an .oplog `file or directory` instead of running the demo")
	racesJSON := flag.String("races-json", "", "with -races, also write the reports as JSON to `file`")
	flag.Parse()

	if *racesPath != "" {
		nraces, err := races(*racesPath, *racesJSON)
		if err != nil {
			log.Fatal(err)
		}
		if nraces > 0 {
			os.Exit(1)
		}
		return
	}

	if *replayFile != "" {
		if err := replay(*replayFile); err != nil {
			log.Fatal(err)
		}
		return
	}

	var proto gmac.Protocol
	switch *protoName {
	case "batch":
		proto = gmac.BatchUpdate
	case "lazy":
		proto = gmac.LazyUpdate
	case "rolling":
		proto = gmac.RollingUpdate
	default:
		fmt.Fprintf(os.Stderr, "adsmtrace: unknown protocol %q\n", *protoName)
		os.Exit(2)
	}

	m := machine.PaperTestbed()
	defer m.Close()
	ctx, err := gmac.NewContext(m, gmac.Config{
		Protocol:     proto,
		BlockSize:    *blockSize,
		FixedRolling: *rolling,
	})
	if err != nil {
		log.Fatal(err)
	}
	tracer := ctx.EnableTracer(4096)
	events := tracer.Log()
	if *recordFile != "" {
		ctx.EnableRecorder(1 << 16)
	}

	ctx.Register(func() *gmac.Kernel {
		return &gmac.Kernel{
			Name: "scale2x",
			Run: func(dev *gmac.DeviceMemory, args []uint64) {
				p, n := gmac.Ptr(args[0]), int64(args[1])
				for i := int64(0); i < n; i++ {
					dev.SetFloat32(p+gmac.Ptr(i*4), 2*dev.Float32(p+gmac.Ptr(i*4)))
				}
			},
			Cost: func(args []uint64) (float64, int64) {
				n := int64(args[1])
				return float64(n), 8 * n
			},
		}
	})

	// The scenario: allocate a 4-block object, initialise it from the CPU
	// (write faults; under a small rolling cache, evictions), run a kernel
	// (flush + invalidate), then read one element (fetch of one block) and
	// rewrite another (fetch + dirty).
	const n = 16 << 10 // 64 KB = 4 blocks of 16 KB
	p, err := ctx.Alloc(n * 4)
	if err != nil {
		log.Fatal(err)
	}
	v, err := ctx.Float32s(p, n)
	if err != nil {
		log.Fatal(err)
	}
	if err := v.Fill(1.0); err != nil {
		log.Fatal(err)
	}
	if err := ctx.Call("scale2x", []uint64{uint64(p), n}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("element 0 after kernel: %v\n", v.At(0))
	v.Set(n-1, 7)

	// Snapshot before Free so the object table still has its one row.
	snap := ctx.Snapshot()

	if err := ctx.Free(p); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nprotocol %s, block %d, rolling size %d — %d events, %d spans:\n\n",
		proto, *blockSize, *rolling, events.Total(), tracer.TotalSpans())
	fmt.Print(events)

	st := ctx.Stats()
	fmt.Printf("\ntotals: %d faults, %d evictions, %d KB to device, %d KB back\n",
		st.Faults, st.Evictions, st.BytesH2D>>10, st.BytesD2H>>10)

	if *report {
		fmt.Println()
		snap.WriteText(os.Stdout)
		fmt.Println()
		if err := gmac.Metrics().WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	if *traceJSON != "" {
		f, err := os.Create(*traceJSON)
		if err != nil {
			log.Fatal(err)
		}
		if err := tracer.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote Chrome trace to %s (load in chrome://tracing)\n", *traceJSON)
	}

	if *recordFile != "" {
		l, err := ctx.FinishOpLog("adsmtrace")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*recordFile, l.Encode(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nrecorded %d ops to %s (replay with adsmtrace -replay)\n",
			len(l.Ops), *recordFile)
	}
}

// races runs the offline race detector over one .oplog file, or over every
// .oplog in a directory, printing each report and optionally writing the
// JSON aggregate. It returns the total race count.
func races(path, jsonOut string) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	files := []string{path}
	if info.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.oplog"))
		if err != nil {
			return 0, err
		}
		if len(files) == 0 {
			return 0, fmt.Errorf("adsmtrace: no .oplog files in %s", path)
		}
		sort.Strings(files)
	}

	type fileReport struct {
		File string `json:"file"`
		*gmac.RaceReport
	}
	var total int64
	reports := make([]fileReport, 0, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return total, err
		}
		l, err := gmac.DecodeOpLog(data)
		if err != nil {
			return total, fmt.Errorf("%s: %w", f, err)
		}
		rep := gmac.AnalyzeRaces(l)
		if rep.Label == "" {
			rep.Label = filepath.Base(f)
		}
		if err := rep.WriteText(os.Stdout); err != nil {
			return total, err
		}
		total += rep.Count
		reports = append(reports, fileReport{File: f, RaceReport: rep})
	}
	if len(files) > 1 {
		fmt.Printf("total: %d race(s) across %d streams\n", total, len(files))
	}

	if jsonOut != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return total, err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return total, err
		}
		fmt.Printf("wrote JSON race report to %s\n", jsonOut)
	}
	return total, nil
}

// replay re-executes a recorded op stream against a fresh context derived
// from the stream's header and verifies the replayed counters.
func replay(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	l, err := gmac.DecodeOpLog(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	flight := l.Header.Flags&gmac.HdrFlight != 0
	kind := "capture log"
	if flight {
		kind = "flight dump"
	}
	fmt.Printf("%s: %s %q, %d ops, protocol %d, block %d\n",
		path, kind, l.Header.Label, len(l.Ops), l.Header.Protocol, l.Header.BlockSize)

	m := machine.PaperTestbed()
	defer m.Close()
	ctx, err := gmac.NewContext(m, gmac.ReplayConfig(l.Header))
	if err != nil {
		return err
	}
	report, err := ctx.Replay(l, gmac.ReplayOptions{Lenient: flight})
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d/%d input ops (%d skipped, %d errors)\n",
		report.Replayed, report.Input, report.Skipped, report.Errors)
	st := ctx.Stats()
	fmt.Printf("totals: %d faults, %d evictions, %d KB to device, %d KB back\n",
		st.Faults, st.Evictions, st.BytesH2D>>10, st.BytesD2H>>10)

	if flight {
		fmt.Println("flight dump: bounded window, counter conformance not checked")
		return nil
	}
	if err := gmac.CompareTotals(l.Totals, ctx.Stats().Counters()); err != nil {
		return err
	}
	fmt.Println("replay conformance: all recorded counter totals reproduced")
	return nil
}
