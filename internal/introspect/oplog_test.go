package introspect_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/gmac"
	"repro/internal/introspect"
)

func TestMetricsEndpointOpenMetrics(t *testing.T) {
	driveWorkload(t)
	srv, err := introspect.Start("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/adsm/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("scrape content type = %q, want the Prometheus 0.0.4 type", got)
	}
	body := get(t, "http://"+srv.Addr()+"/adsm/metrics")
	out := string(body)
	for _, want := range []string{
		"# TYPE adsm_faults_total counter",
		`adsm_faults_total{protocol="rolling-update"}`,
		"_bucket{",
		`le="+Inf"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%.2000s", want, out)
		}
	}
}

func TestStatszQuantileColumns(t *testing.T) {
	driveWorkload(t)
	srv, err := introspect.Start("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	out := string(get(t, "http://"+srv.Addr()+"/adsm/statsz"))
	if !strings.Contains(out, "adsm_fault_service_ns") {
		t.Fatalf("statsz missing fault-latency histogram:\n%s", out)
	}
	for _, col := range []string{" p50=", " p95=", " p99="} {
		if !strings.Contains(out, col) {
			t.Errorf("statsz histogram lines missing %q column:\n%s", col, out)
		}
	}
}

// twoRuns starts an endpoint and drives two contexts while it serves, so
// both managers are retained; it returns the endpoint's base URL and the
// two managers' ids, oldest first.
func twoRuns(t *testing.T) (base string, first, second int) {
	t.Helper()
	srv, err := introspect.Start("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	first = driveWorkload(t).Manager().ID()
	second = driveWorkload(t).Manager().ID()
	return "http://" + srv.Addr(), first, second
}

// status returns the HTTP status of a GET.
func status(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestOpLogEndpoint(t *testing.T) {
	base, first, second := twoRuns(t)
	type doc struct {
		Capacity int    `json:"capacity"`
		Total    uint64 `json:"total"`
		Ops      []struct {
			At   int64  `json:"at_ns"`
			Kind string `json:"kind"`
			Mgr  int    `json:"mgr"`
			Note string `json:"note,omitempty"`
		} `json:"ops"`
	}
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"", second}, // no parameter: the newest manager
		{fmt.Sprintf("?mgr=%d", first), first},
		{fmt.Sprintf("?mgr=%d", second), second},
	} {
		body := get(t, base+"/adsm/oplog"+tc.query)
		var d doc
		if err := json.Unmarshal(body, &d); err != nil {
			t.Fatalf("%q: oplog endpoint returned invalid JSON: %v\n%.1000s", tc.query, err, body)
		}
		if d.Capacity == 0 || d.Total == 0 || len(d.Ops) == 0 {
			t.Fatalf("%q: flight window empty: capacity=%d total=%d ops=%d",
				tc.query, d.Capacity, d.Total, len(d.Ops))
		}
		kinds := map[string]bool{}
		for _, op := range d.Ops {
			if op.Mgr != tc.want {
				t.Fatalf("%q: window holds an op of manager %d, want only %d's", tc.query, op.Mgr, tc.want)
			}
			kinds[op.Kind] = true
		}
		for _, want := range []string{"alloc", "invoke", "fault"} {
			if !kinds[want] {
				t.Errorf("%q: flight window has no %q ops; kinds seen: %v", tc.query, want, kinds)
			}
		}
	}
	if got := status(t, base+"/adsm/oplog?mgr=x"); got != http.StatusBadRequest {
		t.Fatalf("bad mgr id: status %d, want 400", got)
	}
}

func TestFlightDumpEndpoint(t *testing.T) {
	base, first, second := twoRuns(t)
	resp, err := http.Get(base + "/adsm/flight-dump")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/octet-stream" {
		t.Fatalf("dump content type = %q", got)
	}
	for query, want := range map[string]int{
		"":                             second, // no parameter: the newest manager
		fmt.Sprintf("?mgr=%d", first):  first,
		fmt.Sprintf("?mgr=%d", second): second,
	} {
		l, err := gmac.DecodeOpLog(get(t, base+"/adsm/flight-dump"+query))
		if err != nil {
			t.Fatalf("%q: dump does not decode: %v", query, err)
		}
		if len(l.Ops) == 0 || l.Header.Flags&gmac.HdrFlight == 0 || len(l.Metrics) == 0 {
			t.Fatalf("%q: dump carries %d ops, flags %#x, %d metrics bytes",
				query, len(l.Ops), l.Header.Flags, len(l.Metrics))
		}
		for _, op := range l.Ops {
			if int(op.Mgr) != want {
				t.Fatalf("%q: dump holds an op of manager %d, want only %d's", query, op.Mgr, want)
			}
		}
	}
	if got := status(t, base+"/adsm/flight-dump?mgr=x"); got != http.StatusBadRequest {
		t.Fatalf("bad mgr id: status %d, want 400", got)
	}
}
