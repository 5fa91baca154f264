// These tests drive the detector the way the runtime is used: a gmac
// session records its op stream, and gmac.AnalyzeRaces judges the recorded
// stream — scenario by scenario, on the committed fixtures, and on every
// evaluation workload.
package racecheck_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/gmac"
	"repro/internal/racecheck"
	"repro/internal/workloads"
	"repro/machine"
)

var update = flag.Bool("update", false, "rewrite the golden race fixtures in testdata/")

const (
	blockSize = int64(4 << 10)
	objBytes  = int64(16 << 10) // 4 coherence blocks
	elems     = uint64(objBytes / 4)
)

// registerKernels installs "scale2x" (writes its object) and "sum" (reads
// it) — the two footprints the scenarios annotate. args: ptr, nFloats.
func registerKernels(s gmac.Session) {
	s.Register(func() *gmac.Kernel {
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
	s.Register(func() *gmac.Kernel {
		return &gmac.Kernel{
			Name: "sum",
			Run: func(dev *gmac.DeviceMemory, args []uint64) {
				p, n := gmac.Ptr(args[0]), int64(args[1])
				var acc float32
				for i := int64(0); i < n; i++ {
					acc += dev.Float32(p + gmac.Ptr(i*4))
				}
				_ = acc
			},
			Cost: func(args []uint64) (float64, int64) {
				n := int64(args[1])
				return float64(n), 4 * n
			},
		}
	})
}

func call(t *testing.T, s gmac.Session, kernel string, p gmac.Ptr, opts ...gmac.CallOption) {
	t.Helper()
	if err := s.Call(kernel, []uint64{uint64(p), elems}, opts...); err != nil {
		t.Fatalf("Call(%s): %v", kernel, err)
	}
}

func hostWrite(t *testing.T, s gmac.Session, p gmac.Ptr, n int) {
	t.Helper()
	if err := s.HostWrite(p, make([]byte, n)); err != nil {
		t.Fatalf("HostWrite: %v", err)
	}
}

func hostRead(t *testing.T, s gmac.Session, p gmac.Ptr, n int) {
	t.Helper()
	if err := s.HostRead(p, make([]byte, n)); err != nil {
		t.Fatalf("HostRead: %v", err)
	}
}

func syncAll(t *testing.T, s gmac.Session) {
	t.Helper()
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// raceExpect is one expected race: its kind and the Op strings of the two
// unordered sites.
type raceExpect struct{ kind, prior, racing string }

// scenarios is the conflict corpus: every seeded race the detector must
// flag — with both access sites — and the correctly-ordered variants it
// must stay silent on. Each run starts after a whole-object host write of
// p (the allocation's initialisation).
var scenarios = []struct {
	name string
	run  func(t *testing.T, s gmac.Session, p gmac.Ptr)
	want []raceExpect
}{
	{
		// A host write lands while an annotated kernel that writes the
		// same object is still in flight: the launch edge orders the
		// kernel after everything before Call, but nothing orders the
		// host write after the kernel.
		name: "host-write-during-async-kernel",
		run: func(t *testing.T, s gmac.Session, p gmac.Ptr) {
			call(t, s, "scale2x", p, gmac.Writes(p), gmac.Async())
			hostWrite(t, s, p, 64)
			syncAll(t, s)
		},
		want: []raceExpect{{"write-write", "kernel-write", "host-write"}},
	},
	{
		// Two async kernels with overlapping declared write-sets: nothing
		// orders the second launch after the first completes.
		name: "overlapping-kernel-write-sets",
		run: func(t *testing.T, s gmac.Session, p gmac.Ptr) {
			call(t, s, "scale2x", p, gmac.Writes(p), gmac.Async())
			call(t, s, "scale2x", p, gmac.Writes(p), gmac.Async())
			syncAll(t, s)
		},
		want: []raceExpect{{"write-write", "kernel-write", "kernel-write"}},
	},
	{
		// Reading back a kernel's output without the Sync acquire.
		name: "missing-sync-before-readback",
		run: func(t *testing.T, s gmac.Session, p gmac.Ptr) {
			call(t, s, "scale2x", p, gmac.Writes(p), gmac.Async())
			hostRead(t, s, p, 64)
			syncAll(t, s)
		},
		want: []raceExpect{{"write-read", "kernel-write", "host-read"}},
	},
	{
		// A host write overtaking an in-flight kernel that only reads the
		// object (per-call read-only hint).
		name: "host-write-during-kernel-read",
		run: func(t *testing.T, s gmac.Session, p gmac.Ptr) {
			call(t, s, "sum", p, gmac.ReadOnlyHint(p), gmac.Async())
			hostWrite(t, s, p, 64)
			syncAll(t, s)
		},
		want: []raceExpect{{"read-write", "kernel-read", "host-write"}},
	},
	{
		// The Table 1 idiom: synchronous Call, then read back. No race.
		name: "sync-before-readback-no-race",
		run: func(t *testing.T, s gmac.Session, p gmac.Ptr) {
			call(t, s, "scale2x", p, gmac.Writes(p))
			hostRead(t, s, p, 64)
		},
		want: nil,
	},
	{
		// A host read concurrent with a kernel that only reads: two reads
		// never conflict.
		name: "concurrent-reads-no-race",
		run: func(t *testing.T, s gmac.Session, p gmac.Ptr) {
			call(t, s, "sum", p, gmac.ReadOnlyHint(p), gmac.Async())
			hostRead(t, s, p, 64)
			syncAll(t, s)
		},
		want: nil,
	},
}

// recordScenario runs one scenario on a fresh small machine with the
// op-stream recorder enabled, and returns the recorded stream.
func recordScenario(t *testing.T, name string, run func(*testing.T, gmac.Session, gmac.Ptr)) *gmac.OpLog {
	t.Helper()
	m := machine.SmallTestbed()
	ctx, err := gmac.NewContext(m, gmac.Config{
		Protocol:  gmac.RollingUpdate,
		BlockSize: blockSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx.EnableRecorder(1 << 14)
	registerKernels(ctx)
	p, err := ctx.Alloc(objBytes)
	if err != nil {
		t.Fatal(err)
	}
	hostWrite(t, ctx, p, int(objBytes))
	run(t, ctx, p)
	if err := ctx.Free(p); err != nil {
		t.Fatal(err)
	}
	l, err := ctx.FinishOpLog("racecheck:" + name)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestConflictScenarios is the corpus gate: in the analysis of each
// scenario's recorded stream, every seeded race is flagged with exactly the
// expected kind and both access sites, the benign orderings stay silent,
// and the stream's encoded form yields the same verdicts.
func TestConflictScenarios(t *testing.T) {
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			l := recordScenario(t, sc.name, sc.run)
			rep := gmac.AnalyzeRaces(l)
			if int64(len(rep.Races)) != rep.Count {
				t.Fatalf("report counted %d races, retained %d", rep.Count, len(rep.Races))
			}
			if len(rep.Races) != len(sc.want) {
				t.Fatalf("flagged %d race(s), want %d:\n%v", len(rep.Races), len(sc.want), rep.Races)
			}
			for i, w := range sc.want {
				r := rep.Races[i]
				if r.Kind != w.kind {
					t.Errorf("race #%d kind %q, want %q", i, r.Kind, w.kind)
				}
				if r.Prior.Op != w.prior || r.Access.Op != w.racing {
					t.Errorf("race #%d sites %q/%q, want %q/%q",
						i, r.Prior.Op, r.Access.Op, w.prior, w.racing)
				}
				for _, site := range []racecheck.Site{r.Prior, r.Access} {
					if site.OpIndex == 0 || site.Obj == 0 {
						t.Errorf("race #%d site not anchored to the stream: %+v", i, site)
					}
					if strings.HasPrefix(site.Op, "kernel") && site.Kernel == "" {
						t.Errorf("race #%d kernel site lost its kernel name: %+v", i, site)
					}
				}
				if r.Prior.OpIndex >= r.Access.OpIndex {
					t.Errorf("race #%d sites out of stream order: %+v", i, r)
				}
			}

			// The verdicts survive the wire: the decoded stream yields the
			// same races, race by race.
			dec, err := gmac.DecodeOpLog(l.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if again := gmac.AnalyzeRaces(dec); again.Count != rep.Count || !reflect.DeepEqual(again.Races, rep.Races) {
				t.Fatalf("decoded stream's analysis diverged:\ndecoded  (%d): %v\nrecorded (%d): %v",
					again.Count, again.Races, rep.Count, rep.Races)
			}
		})
	}
}

// TestScenarioReplayConformance: a strict replay of each scenario's stream
// reproduces every recorded counter, and the replay's own recorded stream
// yields the original stream's race verdicts.
func TestScenarioReplayConformance(t *testing.T) {
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			l := recordScenario(t, sc.name, sc.run)
			ctx, err := gmac.NewContext(machine.SmallTestbed(), gmac.ReplayConfig(l.Header))
			if err != nil {
				t.Fatal(err)
			}
			ctx.EnableRecorder(1 << 14)
			report, err := ctx.Replay(l, gmac.ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if report.Skipped != 0 || report.Errors != 0 {
				t.Fatalf("replay skipped %d, errored %d", report.Skipped, report.Errors)
			}
			if err := gmac.CompareTotals(l.Totals, ctx.Stats().Counters()); err != nil {
				t.Fatal(err)
			}
			replayed, err := ctx.FinishOpLog("replay:" + sc.name)
			if err != nil {
				t.Fatal(err)
			}
			got, want := gmac.AnalyzeRaces(replayed), gmac.AnalyzeRaces(l)
			if got.Count != int64(len(sc.want)) || got.Count != want.Count ||
				!reflect.DeepEqual(got.Races, want.Races) {
				t.Fatalf("replay's verdict diverged:\nreplay   (%d): %v\nrecorded (%d): %v",
					got.Count, got.Races, want.Count, want.Races)
			}
		})
	}
}

// TestFixturesReplayStrictly: the committed fixtures were recorded with
// the retired HdrRaceDetect header bit set (and the retired RacesDetected
// counter in their totals); each must still decode and replay strictly
// under ReplayConfig.
func TestFixturesReplayStrictly(t *testing.T) {
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", sc.name+".oplog"))
			if err != nil {
				t.Fatal(err)
			}
			l, err := gmac.DecodeOpLog(data)
			if err != nil {
				t.Fatal(err)
			}
			ctx, err := gmac.NewContext(machine.SmallTestbed(), gmac.ReplayConfig(l.Header))
			if err != nil {
				t.Fatal(err)
			}
			report, err := ctx.Replay(l, gmac.ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if report.Skipped != 0 || report.Errors != 0 {
				t.Fatalf("replay skipped %d, errored %d", report.Skipped, report.Errors)
			}
		})
	}
}

// TestGoldenRaceReports pins the detector's verdicts on the committed
// conflict fixtures: the .oplog streams and their rendered reports live in
// testdata/ and CI's static-analysis job replays them. Regenerate with
// `go test ./internal/racecheck -run Golden -update`.
func TestGoldenRaceReports(t *testing.T) {
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			opPath := filepath.Join("testdata", sc.name+".oplog")
			goldPath := filepath.Join("testdata", sc.name+".golden")
			if *update {
				l := recordScenario(t, sc.name, sc.run)
				if err := os.WriteFile(opPath, l.Encode(), 0o644); err != nil {
					t.Fatal(err)
				}
				var b bytes.Buffer
				if err := gmac.AnalyzeRaces(l).WriteText(&b); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldPath, b.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(opPath)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			l, err := gmac.DecodeOpLog(data)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := gmac.AnalyzeRaces(l).WriteText(&got); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(goldPath)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("report drifted from golden:\n--- got ---\n%s--- want ---\n%s",
					got.Bytes(), want)
			}
		})
	}
}

// corpusFiles returns the committed recorded-workload corpus.
func corpusFiles(t testing.TB) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.oplog"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	return files
}

// TestCorpusRaceFree is the false-positive gate: every recorded
// real-workload stream in the committed corpus must analyse clean.
func TestCorpusRaceFree(t *testing.T) {
	files := corpusFiles(t)
	if len(files) == 0 {
		t.Skip("no recorded corpus (run `make record-corpus`)")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			l, err := gmac.DecodeOpLog(data)
			if err != nil {
				t.Fatal(err)
			}
			rep := gmac.AnalyzeRaces(l)
			if rep.Count != 0 {
				var b bytes.Buffer
				rep.WriteText(&b)
				t.Fatalf("false positives on a recorded workload:\n%s", b.String())
			}
		})
	}
}

// TestWorkloadsRaceFree runs every evaluation workload at unit-test scale,
// records it and analyses each stream: zero races on every benchmark.
func TestWorkloadsRaceFree(t *testing.T) {
	for _, b := range workloads.AllSmall() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			rep, err := workloads.RunGMAC(b, workloads.Options{
				Protocol: gmac.RollingUpdate,
				Record:   1 << 16, // ops; far above any small run, so the ring cannot wrap
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.OpLog == nil {
				t.Fatal("no recorded stream")
			}
			if races := gmac.AnalyzeRaces(rep.OpLog); races.Count != 0 {
				var buf bytes.Buffer
				races.WriteText(&buf)
				t.Fatalf("analysis flagged races on %s:\n%s", b.Name(), buf.String())
			}
		})
	}
}
