// These tests drive the detector both ways the runtime does: online
// through a gmac session with Config.RaceDetect set, and offline over the
// recorded op stream — and assert the two agree exactly, scenario by
// scenario.
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
// online detector and the op-stream recorder both enabled, and returns the
// finished context and its recorded stream.
func recordScenario(t *testing.T, name string, run func(*testing.T, gmac.Session, gmac.Ptr)) (*gmac.Context, *gmac.OpLog) {
	t.Helper()
	m := machine.SmallTestbed()
	ctx, err := gmac.NewContext(m, gmac.Config{
		Protocol:   gmac.RollingUpdate,
		BlockSize:  blockSize,
		RaceDetect: true,
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
	return ctx, l
}

// TestConflictScenarios is the corpus gate: each seeded racy scenario is
// flagged with exactly the expected kind and both access sites, the benign
// orderings stay silent, and the offline analysis of the recorded stream
// reproduces the online verdicts exactly.
func TestConflictScenarios(t *testing.T) {
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			ctx, l := recordScenario(t, sc.name, sc.run)
			online := ctx.Races()
			st := ctx.Stats()
			if int64(len(online)) != st.RacesDetected {
				t.Fatalf("Stats.RacesDetected %d != %d retained races",
					st.RacesDetected, len(online))
			}
			if len(online) != len(sc.want) {
				t.Fatalf("flagged %d race(s), want %d:\n%v", len(online), len(sc.want), online)
			}
			for i, w := range sc.want {
				r := online[i]
				if r.Kind != w.kind {
					t.Errorf("race #%d kind %q, want %q", i, r.Kind, w.kind)
				}
				if r.Prior.Op != w.prior || r.Access.Op != w.racing {
					t.Errorf("race #%d sites %q/%q, want %q/%q",
						i, r.Prior.Op, r.Access.Op, w.prior, w.racing)
				}
				for _, site := range []gmac.RaceSite{r.Prior, r.Access} {
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

			// Offline over the recorded stream: identical verdicts, race
			// by race.
			rep := gmac.AnalyzeRaces(l)
			if rep.Count != st.RacesDetected || !reflect.DeepEqual(rep.Races, online) {
				t.Fatalf("offline analysis diverged from online:\noffline (%d): %v\nonline  (%d): %v",
					rep.Count, rep.Races, st.RacesDetected, online)
			}
		})
	}
}

// TestScenarioReplayConformance: a stream recorded with detection on
// carries HdrRaceDetect, so a replay context re-enables the detector and
// must reproduce the recorded RacesDetected total along with every other
// counter.
func TestScenarioReplayConformance(t *testing.T) {
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			_, l := recordScenario(t, sc.name, sc.run)
			if l.Header.Flags&gmac.HdrRaceDetect == 0 {
				t.Fatal("recorded header lost HdrRaceDetect")
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
			if err := gmac.CompareTotals(l.Totals, ctx.Stats().Counters()); err != nil {
				t.Fatal(err)
			}
			if got := ctx.Stats().RacesDetected; got != int64(len(sc.want)) {
				t.Fatalf("replay re-detected %d race(s), want %d", got, len(sc.want))
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
				_, l := recordScenario(t, sc.name, sc.run)
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

// TestWorkloadsRaceFree runs every evaluation workload at unit-test scale
// with the online detector enabled and analyses each recorded stream
// offline: zero races both ways, on every benchmark.
func TestWorkloadsRaceFree(t *testing.T) {
	for _, b := range workloads.AllSmall() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			rep, err := workloads.RunGMAC(b, workloads.Options{
				Protocol:   gmac.RollingUpdate,
				RaceDetect: true,
				Record:     -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.GMAC.RacesDetected != 0 {
				t.Fatalf("online detector flagged %d race(s) on %s",
					rep.GMAC.RacesDetected, b.Name())
			}
			if rep.OpLog == nil {
				t.Fatal("no recorded stream")
			}
			offline := gmac.AnalyzeRaces(rep.OpLog)
			if offline.Count != 0 {
				var buf bytes.Buffer
				offline.WriteText(&buf)
				t.Fatalf("offline analysis flagged races online detection missed:\n%s", buf.String())
			}
		})
	}
}
