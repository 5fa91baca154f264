package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatalf("Counter is not get-or-create")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 5122 {
		t.Fatalf("count=%d sum=%d, want 5/5122", s.Count, s.Sum)
	}
	want := []int64{2, 2, 0, 1} // le10: {1,10}; le100: {11,100}; le1000: {}; +inf: {5000}
	for i, b := range s.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d (le %s) = %d, want %d", i, b.Le, b.Count, want[i])
		}
	}
	if s.Buckets[len(s.Buckets)-1].Le != "+inf" {
		t.Fatalf("last bucket le = %q, want +inf", s.Buckets[len(s.Buckets)-1].Le)
	}
}

// TestRecordPathAllocs is the acceptance check for the hot path: recording
// into counters, gauges and histograms must not allocate.
func TestRecordPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", LatencyBuckets)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(42)
		h.Observe(12345)
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %v times per op, want 0", allocs)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("lat", LatencyBuckets)
			for j := 0; j < perWorker; j++ {
				c.Inc()
				h.Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat", LatencyBuckets).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("adsm_faults_total", "protocol", "rolling-update")).Add(3)
	r.Histogram("accel_h2d_bytes", SizeBuckets).Observe(64 << 10)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v", err)
	}
	if s.Counters["adsm_faults_total{protocol=rolling-update}"] != 3 {
		t.Fatalf("counter missing from snapshot: %+v", s.Counters)
	}
	if s.Histograms["accel_h2d_bytes"].Count != 1 {
		t.Fatalf("histogram missing from snapshot")
	}

	var txt strings.Builder
	if err := r.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "adsm_faults_total") {
		t.Fatalf("text report missing counter:\n%s", txt.String())
	}
}
