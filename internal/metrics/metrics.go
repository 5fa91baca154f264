// Package metrics is the ADSM runtime's instrumentation layer: a
// dependency-free registry of named counters, gauges and fixed-bucket
// histograms. The record path is built for the manager's hot paths (fault
// handling, block transfers): handles are resolved once at wiring time,
// after which every Inc/Add/Set/Observe is one or two atomic operations
// and performs no allocation.
//
// The conventions mirror the paper's evaluation: transfer volumes and
// fault rates are counters (Figure 8), latency and size distributions are
// histograms (Figure 11's size-dependent bandwidth curve), and the rolling
// cache's occupancy is a gauge plus a histogram (Figure 12). Names use a
// flat `subsystem_quantity_unit` scheme with an optional `{key=value}`
// label suffix produced by Label, e.g.
//
//	adsm_faults_total{protocol=rolling-update}
//	accel_h2d_latency_ns
//	link_bytes_total{link=PCIe 2.0 x16 H2D}
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing 64-bit counter. The zero value is
// usable, but counters should be obtained from a Registry so they are
// exported.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which should be non-negative; this is not enforced on the
// hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous 64-bit value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution of int64 observations
// (latencies in nanoseconds, sizes in bytes, tree depths in nodes).
// Observation i lands in the first bucket whose upper bound is >= i; an
// implicit +Inf bucket catches the rest. The record path is allocation
// free: one linear scan over the (small, fixed) bound slice plus two
// atomic adds. There is no separate count: the number of observations is
// the total of the buckets, so every reader's count agrees with the
// buckets it read, even under concurrent Observe.
type Histogram struct {
	bounds []int64        // ascending upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	_, n := h.load(nil)
	return n
}

// load appends each bucket's count to dst[:0] and returns it with their
// total, the histogram's count.
func (h *Histogram) load(dst []int64) ([]int64, int64) {
	dst = dst[:0]
	total := int64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		dst = append(dst, c)
		total += c
	}
	return dst, total
}

// Bucket is one histogram bucket in a snapshot. Le is the inclusive upper
// bound rendered as a decimal string, or "+inf" for the overflow bucket.
type Bucket struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution by linear interpolation within the bucket containing the
// rank — the standard fixed-bucket estimator (what Prometheus's
// histogram_quantile computes server-side). Values landing in the +Inf
// overflow bucket are clamped to the largest finite bound: the estimator
// can never invent a value beyond what the layout can resolve. Returns 0
// for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	lower := 0.0
	for _, b := range s.Buckets {
		upper, inf := bucketBound(b.Le)
		if b.Count > 0 && cum+float64(b.Count) >= rank {
			if inf || upper <= lower {
				return int64(lower)
			}
			frac := (rank - cum) / float64(b.Count)
			return int64(lower + (upper-lower)*frac)
		}
		cum += float64(b.Count)
		if !inf {
			lower = upper
		}
	}
	return int64(lower)
}

// bucketBound parses a Bucket.Le string; inf reports the overflow bucket.
func bucketBound(le string) (bound float64, inf bool) {
	if le == "+inf" {
		return 0, true
	}
	v, err := strconv.ParseInt(le, 10, 64)
	if err != nil {
		return 0, true
	}
	return float64(v), false
}

// Sub returns the distribution of observations made after base was taken:
// counts and sums subtracted bucket by bucket. Both snapshots must come
// from the same histogram (same bucket layout); Sub panics otherwise.
// Harnesses sharing the process-wide registry across runs use it to
// isolate one run's latency distribution.
func (s HistogramSnapshot) Sub(base HistogramSnapshot) HistogramSnapshot {
	if len(base.Buckets) == 0 {
		return s
	}
	if len(s.Buckets) != len(base.Buckets) {
		panic(fmt.Sprintf("metrics: HistogramSnapshot.Sub bucket layouts differ (%d vs %d)",
			len(s.Buckets), len(base.Buckets)))
	}
	out := HistogramSnapshot{
		Count:   s.Count - base.Count,
		Sum:     s.Sum - base.Sum,
		Buckets: make([]Bucket, len(s.Buckets)),
	}
	if out.Count > 0 {
		out.Mean = float64(out.Sum) / float64(out.Count)
	}
	for i := range s.Buckets {
		out.Buckets[i] = Bucket{Le: s.Buckets[i].Le, Count: s.Buckets[i].Count - base.Buckets[i].Count}
	}
	return out
}

// loadedQuantile mirrors HistogramSnapshot.Quantile over bucket counts the
// caller loaded (load), so render paths (WriteText) can report percentiles
// without snapshotting. count is the total of counts.
func (h *Histogram) loadedQuantile(q float64, counts []int64, count int64) int64 {
	if count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(count)
	cum, lower := 0.0, 0.0
	for i, c := range counts {
		n := float64(c)
		inf := i >= len(h.bounds)
		var upper float64
		if !inf {
			upper = float64(h.bounds[i])
		}
		if n > 0 && cum+n >= rank {
			if inf || upper <= lower {
				return int64(lower)
			}
			return int64(lower + (upper-lower)*(rank-cum)/n)
		}
		cum += n
		if !inf {
			lower = upper
		}
	}
	return int64(lower)
}

// Snapshot copies the histogram's current state. Its Count is the total
// of its Buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: make([]Bucket, len(h.counts))}
	for i := range h.counts {
		le := "+inf"
		if i < len(h.bounds) {
			le = strconv.FormatInt(h.bounds[i], 10)
		}
		s.Buckets[i] = Bucket{Le: le, Count: h.counts[i].Load()}
		s.Count += s.Buckets[i].Count
	}
	s.Sum = h.sum.Load()
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	return s
}

// Standard bucket layouts. All are small enough that the linear scan in
// Observe stays cheap.
var (
	// LatencyBuckets covers virtual durations from sub-microsecond fault
	// handling to second-scale stalls (nanoseconds, roughly x4 per step).
	LatencyBuckets = []int64{
		250, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
		1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
	}
	// SizeBuckets covers transfer sizes from one page to large objects
	// (bytes, x4 per step) — the x-axis of Figure 11.
	SizeBuckets = []int64{
		4 << 10, 16 << 10, 64 << 10, 256 << 10,
		1 << 20, 4 << 20, 16 << 20, 64 << 20,
	}
	// DepthBuckets covers block-tree search depths and rolling-cache
	// occupancies (counts, powers of two).
	DepthBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128}
)

// Label appends a `{key=value}` suffix to a metric name, the flat-string
// labelling convention used for per-protocol and per-link families.
func Label(name, key, value string) string {
	return name + "{" + key + "=" + value + "}"
}

// Registry is a concurrency-safe name -> metric table. Get-or-create
// lookups take a mutex; callers cache the returned handles so the record
// path never touches the registry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	// names caches the sorted name slices the renderers iterate: metric
	// creation is rare (wiring time) while statsz/metrics endpoints render
	// on every request, so the sort runs once per registration, not once
	// per request. Guarded by mu; dirty is set by the create paths.
	names struct {
		dirty                        bool
		counters, gauges, histograms []string
	}
}

// namesLocked returns the cached sorted name slices, rebuilding them if a
// metric was registered since the last render. The caller holds r.mu and
// must not retain the slices past unlocking.
func (r *Registry) namesLocked() (counters, gauges, histograms []string) {
	if r.names.dirty {
		r.names.counters = sortedKeys(r.counters, r.names.counters)
		r.names.gauges = sortedKeys(r.gauges, r.names.gauges)
		r.names.histograms = sortedKeys(r.histograms, r.names.histograms)
		r.names.dirty = false
	}
	return r.names.counters, r.names.gauges, r.names.histograms
}

func sortedKeys[V any](m map[string]V, reuse []string) []string {
	out := reuse[:0]
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the runtime records into.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.names.dirty = true
	}
	return c
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.names.dirty = true
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with
// the given bucket bounds if needed. The bounds of an existing histogram
// win; they must be ascending and non-empty.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		if len(bounds) == 0 {
			panic(fmt.Sprintf("metrics: histogram %q needs bucket bounds", name))
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
			}
		}
		h = &Histogram{
			bounds: append([]int64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.histograms[name] = h
		r.names.dirty = true
	}
	return h
}

// Snapshot is a point-in-time copy of a whole registry, shaped for JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteText renders the registry as a human-readable report: counters and
// gauges as aligned name/value lines, histograms as summary lines with
// p50/p95/p99 estimates followed by per-bucket tables. The render path
// reads the cached sorted names and appends with strconv, so it does not
// allocate per metric — statsz serves this on every request.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	counters, gauges, histograms := r.namesLocked()
	buf := make([]byte, 0, 256+64*(len(counters)+len(gauges))+512*len(histograms))
	var counts []int64
	if len(counters) > 0 {
		buf = append(buf, "counters:\n"...)
		for _, n := range counters {
			buf = appendAligned(buf, n, r.counters[n].Value())
		}
	}
	if len(gauges) > 0 {
		buf = append(buf, "gauges:\n"...)
		for _, n := range gauges {
			buf = appendAligned(buf, n, r.gauges[n].Value())
		}
	}
	for _, n := range histograms {
		h := r.histograms[n]
		var count int64
		counts, count = h.load(counts)
		sum := h.sum.Load()
		mean := 0.0
		if count > 0 {
			mean = float64(sum) / float64(count)
		}
		buf = append(buf, "histogram "...)
		buf = append(buf, n...)
		buf = append(buf, ": count="...)
		buf = strconv.AppendInt(buf, count, 10)
		buf = append(buf, " sum="...)
		buf = strconv.AppendInt(buf, sum, 10)
		buf = append(buf, " mean="...)
		buf = strconv.AppendFloat(buf, mean, 'f', 1, 64)
		buf = append(buf, " p50="...)
		buf = strconv.AppendInt(buf, h.loadedQuantile(0.50, counts, count), 10)
		buf = append(buf, " p95="...)
		buf = strconv.AppendInt(buf, h.loadedQuantile(0.95, counts, count), 10)
		buf = append(buf, " p99="...)
		buf = strconv.AppendInt(buf, h.loadedQuantile(0.99, counts, count), 10)
		buf = append(buf, '\n')
		for i, c := range counts {
			if c == 0 {
				continue
			}
			buf = append(buf, "  le "...)
			start := len(buf)
			if i < len(h.bounds) {
				buf = strconv.AppendInt(buf, h.bounds[i], 10)
			} else {
				buf = append(buf, "+inf"...)
			}
			for len(buf)-start < 12 {
				buf = append(buf, ' ')
			}
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, c, 10)
			buf = append(buf, '\n')
		}
	}
	r.mu.Unlock()
	_, err := w.Write(buf)
	return err
}

// appendAligned renders one "  name<pad> value\n" line matching the report
// columns ("%-56s %d").
func appendAligned(buf []byte, name string, v int64) []byte {
	buf = append(buf, "  "...)
	buf = append(buf, name...)
	for n := 56 - len(name); n > 0; n-- {
		buf = append(buf, ' ')
	}
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, v, 10)
	buf = append(buf, '\n')
	return buf
}
