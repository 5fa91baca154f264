package introspect_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/gmac"
	"repro/internal/core"
	"repro/internal/introspect"
	"repro/machine"
)

// driveWorkload runs a small faulting workload through a fresh context so
// the registry, object tables and tracer have data.
func driveWorkload(t *testing.T) *gmac.Context {
	t.Helper()
	ctx, err := gmac.NewContext(machine.SmallTestbed(), gmac.Config{
		Protocol:     gmac.RollingUpdate,
		BlockSize:    16 << 10,
		FixedRolling: 2,
	})
	if err != nil {
		t.Fatal(err)
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
			Cost: func(args []uint64) (float64, int64) { return float64(args[1]), 8 * int64(args[1]) },
		}
	})
	const n = 16 << 10 // 4 blocks
	p, err := ctx.Alloc(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ctx.Float32s(p, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Fill(1); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Call("scale2x", []uint64{uint64(p), n}); err != nil {
		t.Fatal(err)
	}
	if got := v.At(0); got != 2 {
		t.Fatalf("kernel result = %v, want 2", got)
	}
	return ctx
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, body)
	}
	return body
}

func TestStatsEndpoint(t *testing.T) {
	core.SetAutoTrace(1024)
	defer core.SetAutoTrace(0)

	srv, err := introspect.Start("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	driveWorkload(t) // after Start: only a serving endpoint retains managers

	body := get(t, base+"/adsm/stats")
	var doc struct {
		Metrics struct {
			Counters   map[string]int64 `json:"counters"`
			Histograms map[string]struct {
				Count   int64 `json:"count"`
				Buckets []struct {
					Le    string `json:"le"`
					Count int64  `json:"count"`
				} `json:"buckets"`
			} `json:"histograms"`
		} `json:"metrics"`
		Managers []struct {
			ID       int    `json:"id"`
			Protocol string `json:"protocol"`
			Objects  []struct {
				Size  int64 `json:"size"`
				Stats struct {
					Faults   int64 `json:"faults"`
					BytesH2D int64 `json:"bytes_h2d"`
				} `json:"stats"`
			} `json:"objects"`
		} `json:"managers"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("stats endpoint returned invalid JSON: %v\n%s", err, body)
	}
	// Fault counters.
	if doc.Metrics.Counters["adsm_faults_total{protocol=rolling-update}"] == 0 {
		t.Fatalf("no fault counter in /adsm/stats: %v", doc.Metrics.Counters)
	}
	// Transfer histograms with bucket counts.
	h, ok := doc.Metrics.Histograms["accel_h2d_bytes"]
	if !ok || h.Count == 0 {
		t.Fatalf("no H2D size histogram in /adsm/stats")
	}
	nonzero := false
	for _, b := range h.Buckets {
		if b.Count > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatalf("H2D histogram has no populated buckets: %+v", h)
	}
	// Per-object table with attributed traffic.
	found := false
	for _, m := range doc.Managers {
		for _, o := range m.Objects {
			if o.Stats.Faults > 0 && o.Stats.BytesH2D > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no object with attributed faults+transfers in /adsm/stats:\n%s", body)
	}

	// /adsm/objects serves the same tables standalone.
	if !strings.Contains(string(get(t, base+"/adsm/objects")), "rolling-update") {
		t.Fatalf("objects endpoint missing manager view")
	}

	// /adsm/trace serves a Chrome-loadable trace for the auto-traced run.
	var tr struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(get(t, base+"/adsm/trace"), &tr); err != nil {
		t.Fatalf("trace endpoint returned invalid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"invoke", "sync", "fault"} {
		if !names[want] {
			t.Fatalf("trace is missing %q spans; got %v", want, names)
		}
	}

	// The text report renders without error.
	if !strings.Contains(string(get(t, base+"/adsm/statsz")), "adsm_faults_total") {
		t.Fatalf("statsz report missing counters")
	}
}

// TestEndpointDuringRun hits the endpoint while a run is mutating the
// runtime on another goroutine; under -race this proves the introspection
// path touches only atomics and mutex-guarded state.
func TestEndpointDuringRun(t *testing.T) {
	srv, err := introspect.Start("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					resp, err := http.Get(base + "/adsm/stats")
					if err == nil {
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		driveWorkload(t)
	}
	close(done)
	wg.Wait()

	body := get(t, base+"/adsm/objects")
	var views []json.RawMessage
	if err := json.Unmarshal(body, &views); err != nil {
		t.Fatalf("objects endpoint invalid JSON after concurrent runs: %v", err)
	}
	if len(views) == 0 {
		t.Fatal("no managers visible after runs")
	}
	_ = fmt.Sprintf("%d", len(views))
}
