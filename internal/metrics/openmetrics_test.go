package metrics

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestWriteOpenMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("adsm_faults_total").Add(42)
	r.Counter(Label("adsm_faults_total", "protocol", "rolling-update")).Add(7)
	r.Gauge("adsm_cache_blocks").Set(3)
	h := r.Histogram(Label("adsm_fault_service_ns", "protocol", "batch-update"), []int64{100, 200})
	h.Observe(50)
	h.Observe(150)
	h.Observe(9999)

	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE adsm_faults_total counter\n",
		"adsm_faults_total 42\n",
		`adsm_faults_total{protocol="rolling-update"} 7` + "\n",
		"# TYPE adsm_cache_blocks gauge\n",
		"adsm_cache_blocks 3\n",
		"# TYPE adsm_fault_service_ns histogram\n",
		`adsm_fault_service_ns_bucket{protocol="batch-update",le="100"} 1` + "\n",
		`adsm_fault_service_ns_bucket{protocol="batch-update",le="200"} 2` + "\n",
		`adsm_fault_service_ns_bucket{protocol="batch-update",le="+Inf"} 3` + "\n",
		`adsm_fault_service_ns_sum{protocol="batch-update"} ` + "10199\n",
		`adsm_fault_service_ns_count{protocol="batch-update"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family, even with several labelled series.
	if n := strings.Count(out, "# TYPE adsm_faults_total "); n != 1 {
		t.Errorf("family adsm_faults_total has %d TYPE lines, want 1", n)
	}
}

func TestOpenMetricsContentType(t *testing.T) {
	if OpenMetricsContentType != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type drifted: %q", OpenMetricsContentType)
	}
}

func TestOpenMetricsEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("io_bytes_total", "link", `PCIe "x16" H2D\path`)).Add(1)
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	want := `io_bytes_total{link="PCIe \"x16\" H2D\\path"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaping wrong, want %q in:\n%s", want, buf.String())
	}
}

func TestOpenMetricsSanitizesNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird.name-1").Add(9)
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "weird_name_1 9\n") {
		t.Fatalf("name not sanitised:\n%s", buf.String())
	}
}

func TestSanitizeIdent(t *testing.T) {
	cases := map[string]string{
		"ok_name":    "ok_name",
		"9leading":   "_leading",
		"with space": "with_space",
		"":           "_",
	}
	for in, want := range cases {
		if got := sanitizeLabelName(in); got != want {
			t.Errorf("sanitizeLabelName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := sanitizeMetricName("ns:metric"); got != "ns:metric" {
		t.Errorf("metric names may keep colons, got %q", got)
	}
}

// TestHistogramExpositionConsistent renders a histogram while writers
// observe into it. Every snapshot's Count must equal the total of its
// buckets, every text report's count= its bucket lines' total, and every
// exposition's _count its +Inf bucket, as OpenMetrics requires.
func TestHistogramExpositionConsistent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{1, 10, 100})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := int64(w); ; v++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(v % 200)
			}
		}(w)
	}
	defer wg.Wait()
	defer close(stop)
	for round := 0; round < 500; round++ {
		s := h.Snapshot()
		total := int64(0)
		for _, b := range s.Buckets {
			total += b.Count
		}
		if s.Count != total {
			t.Fatalf("round %d: snapshot count %d, buckets total %d", round, s.Count, total)
		}

		var txt bytes.Buffer
		if err := r.WriteText(&txt); err != nil {
			t.Fatal(err)
		}
		var count, lines int64 = -1, 0
		for _, line := range strings.Split(txt.String(), "\n") {
			f := strings.Fields(line)
			switch {
			case len(f) > 2 && f[0] == "histogram":
				count = fieldInt(t, strings.TrimPrefix(f[2], "count="))
			case len(f) == 3 && f[0] == "le":
				lines += fieldInt(t, f[2])
			}
		}
		if count != lines {
			t.Fatalf("round %d: text count=%d, bucket lines total %d:\n%s", round, count, lines, txt.String())
		}

		var om bytes.Buffer
		if err := r.WriteOpenMetrics(&om); err != nil {
			t.Fatal(err)
		}
		var inf, cnt int64 = -1, -2
		for _, line := range strings.Split(om.String(), "\n") {
			switch f := strings.Fields(line); {
			case len(f) == 2 && f[0] == `h_bucket{le="+Inf"}`:
				inf = fieldInt(t, f[1])
			case len(f) == 2 && f[0] == "h_count":
				cnt = fieldInt(t, f[1])
			}
		}
		if inf != cnt {
			t.Fatalf("round %d: _count %d, +Inf bucket %d:\n%s", round, cnt, inf, om.String())
		}
	}
}

func fieldInt(t *testing.T, s string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("%q: %v", s, err)
	}
	return v
}
