package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"

	"repro/gmac"
	"repro/internal/osabs"
	"repro/machine"
)

// maxBuilds caps the 1 GiB-device machines one process may build.
// internal/core pins its 16 most recent managers, each holding its device
// memory: a process that keeps building testbeds reaches tens of GB of
// resident memory (a sizing loop with 33 was OOM-killed at 16 GB). Every
// benchmark run is therefore its own child process, and the child refuses
// to exceed the cap rather than take the host down.
const maxBuilds = 28

// spanSampleEvery is the host-access span sampling rate of a traced run:
// fault-storm makes 4.9 M accesses, and a span per access would measure the
// tracer instead of the program.
const spanSampleEvery = 64

// span is one timed call the harness made into a layer. Times are
// nanoseconds since the child started.
type span struct {
	Name       string
	Start, End int64
	Parent     int32 // index of the enclosing span, -1 at top level
	Run        int32 // the unit of work (variant run, pass, epoch) it belongs to
}

// tracer keeps the spans of a traced run in memory; they are written out
// when the run ends. A nil tracer records nothing, so untraced runs pay one
// nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
	run   int32
}

// newTracer starts with a small span buffer and lets it grow: a buffer sized
// for fault-storm's 80 000 spans is 4 MB of live heap from the start, which
// shifts the collector's pacing enough to slow parboil-eval's 28 machine
// builds by half — a tracing overhead that is not the tracer's work.
func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, spans: make([]span, 0, 1<<10)}
}

// setRun names the unit of work that subsequent spans belong to.
func (t *tracer) setRun(run int) {
	if t != nil {
		t.run = int32(run)
	}
}

// begin opens a span nested under the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: t.top(), Run: t.run})
	t.stack = append(t.stack, int32(id))
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// leaf records an already-timed call as a childless span.
func (t *tracer) leaf(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: t.top(), Run: t.run})
}

func (t *tracer) top() int32 {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return -1
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name          string
	Count         int64
	TotalS, SelfS float64
}

// selfTimes folds the spans by name. A span's self time is its duration
// minus the part of it its child spans cover.
func (t *tracer) selfTimes() []selfRow {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	rows := map[string]*selfRow{}
	for i, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.Count++
		r.TotalS += float64(d) / 1e9
		r.SelfS += float64(d-child[i]) / 1e9
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// total returns the summed duration of every span with the given name.
func (t *tracer) total(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// writeChrome writes the spans as a Chrome trace_event file
// (chrome://tracing, Perfetto).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1, Args: map[string]int{"id": i, "parent": int(s.Parent), "run": int(s.Run)}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// harness is the per-run measuring state every workload shares: the clock
// origin, the size scale, the tracer, the timed-access log, the attempted
// and failed operation counts, and the machine-build budget.
type harness struct {
	t0    time.Time // child start, as the parent saw it
	seed  uint64
	scale float64 // 1 = the sizes BENCHMARK.json is measured at
	tr    *tracer

	// corruptModel makes fault-storm flip one byte of its flat model after
	// the warm-up, for the test that the verification notices.
	corruptModel bool

	access []int32 // host time of each timed host access, ns
	// unsampled suspends the access log (operations are still counted):
	// parboil-eval samples the accesses of one protocol only.
	unsampled bool

	attempted int64
	failed    int64
	firstErr  error
	builds    int
}

func newHarness(t0 time.Time, seed uint64, scale float64, traced bool) *harness {
	h := &harness{t0: t0, seed: seed, scale: scale}
	if traced {
		h.tr = newTracer(t0)
	}
	return h
}

// size scales a full-size count, never below floor.
func (h *harness) size(full, floor int) int {
	return max(int(float64(full)*h.scale), floor)
}

// fail counts one failed operation and remembers the first cause.
func (h *harness) fail(format string, args ...any) {
	h.failed++
	if h.firstErr == nil {
		h.firstErr = fmt.Errorf(format, args...)
	}
}

// op counts one attempted operation, failed if err is set.
func (h *harness) op(what string, err error) {
	h.attempted++
	if err != nil {
		h.fail("%s: %w", what, err)
	}
}

// check counts one output check.
func (h *harness) check(ok bool, format string, args ...any) {
	h.attempted++
	if !ok {
		h.fail(format, args...)
	}
}

// testbed builds the paper's evaluation machine (1 GiB device) at full
// scale. Scaled-down in-process runs (the package tests) get a 128 MiB
// device so that a test binary running a dozen of them stays small.
func (h *harness) testbed() *machine.Machine {
	id := h.tr.begin("machine.New")
	defer h.tr.end(id)
	cfg := machine.PaperTestbedConfig()
	if h.scale < 1 {
		cfg.Accelerators[0].MemSize = 128 << 20
	} else {
		h.builds++
		if h.builds > maxBuilds {
			panic(fmt.Sprintf("bench: run built more than %d testbeds in one process", maxBuilds))
		}
	}
	m, err := machine.New(cfg)
	if err != nil {
		panic(err) // the preset is statically valid
	}
	return m
}

// session builds a GMAC context on m and wraps it for measurement.
func (h *harness) session(m *machine.Machine, cfg gmac.Config) (*session, error) {
	id := h.tr.begin("gmac.NewContext")
	ctx, err := gmac.NewContext(m, cfg)
	h.tr.end(id)
	h.op("gmac.NewContext", err)
	if err != nil {
		return nil, err
	}
	return &session{Session: ctx, ctx: ctx, h: h}, nil
}

// resetSamples drops what set-up and warm-up recorded, so the measured
// region starts from zero. The access log keeps its capacity.
func (h *harness) resetSamples(capacity int) {
	if cap(h.access) < capacity {
		h.access = make([]int32, 0, capacity)
	}
	h.access = h.access[:0]
}

// timed books one host access that started at t.
func (h *harness) timed(name string, t time.Time, err error) {
	d := time.Since(t)
	h.attempted++
	if err != nil {
		h.fail("%s: %w", name, err)
	}
	if h.unsampled {
		return
	}
	if h.tr != nil && len(h.access)%spanSampleEvery == 0 {
		h.tr.leaf(name, t, d)
	}
	h.access = append(h.access, int32(min(d, 1<<31-1)))
}

// accessStats sorts the access log and reports its percentiles in µs.
func (h *harness) accessStats() (p50, p99, p999 float64, n int, err error) {
	slices.Sort(h.access)
	n = len(h.access)
	v50, err := percentile(h.access, 50)
	if err != nil {
		return 0, 0, 0, n, err
	}
	v99, err := percentile(h.access, 99)
	if err != nil {
		return 0, 0, 0, n, err
	}
	v999, err := percentile(h.access, 99.9)
	if err != nil {
		// Small (scaled-down) runs have too few samples for p99.9; it is a
		// per-layer extra, so report the p99 rather than fail the run.
		v999 = v99
	}
	return v50 / 1e3, v99 / 1e3, v999 / 1e3, n, nil
}

// session is the measuring wrapper around a gmac.Context. The workloads —
// the benchmark's own and the Parboil programs alike — see a plain
// gmac.Session; the wrapper times every HostRead/HostWrite into the access
// log, counts every operation as attempted (failed if it returns an error),
// and records a span around every call when the run is traced.
type session struct {
	gmac.Session
	ctx *gmac.Context
	h   *harness
}

func (s *session) HostRead(p gmac.Ptr, dst []byte) error {
	t := time.Now()
	err := s.Session.HostRead(p, dst)
	s.h.timed("gmac.HostRead", t, err)
	return err
}

func (s *session) HostWrite(p gmac.Ptr, src []byte) error {
	t := time.Now()
	err := s.Session.HostWrite(p, src)
	s.h.timed("gmac.HostWrite", t, err)
	return err
}

func (s *session) Alloc(size int64, opts ...gmac.AllocOption) (gmac.Ptr, error) {
	id := s.h.tr.begin("gmac.Alloc")
	p, err := s.Session.Alloc(size, opts...)
	s.h.tr.end(id)
	s.h.op("gmac.Alloc", err)
	return p, err
}

func (s *session) Free(p gmac.Ptr) error {
	id := s.h.tr.begin("gmac.Free")
	err := s.Session.Free(p)
	s.h.tr.end(id)
	s.h.op("gmac.Free", err)
	return err
}

func (s *session) Call(kernel string, args []uint64, opts ...gmac.CallOption) error {
	id := s.h.tr.begin("gmac.Call")
	err := s.Session.Call(kernel, args, opts...)
	s.h.tr.end(id)
	s.h.op("gmac.Call "+kernel, err)
	return err
}

func (s *session) Sync() error {
	id := s.h.tr.begin("gmac.Sync")
	err := s.Session.Sync()
	s.h.tr.end(id)
	s.h.op("gmac.Sync", err)
	return err
}

func (s *session) Memset(p gmac.Ptr, b byte, n int64) error {
	id := s.h.tr.begin("gmac.Memset")
	err := s.Session.Memset(p, b, n)
	s.h.tr.end(id)
	s.h.op("gmac.Memset", err)
	return err
}

func (s *session) ReadFile(f *osabs.File, p gmac.Ptr, n int64) (int64, error) {
	id := s.h.tr.begin("gmac.ReadFile")
	got, err := s.Session.ReadFile(f, p, n)
	s.h.tr.end(id)
	s.h.op("gmac.ReadFile", err)
	return got, err
}

func (s *session) WriteFile(f *osabs.File, p gmac.Ptr, n int64) (int64, error) {
	id := s.h.tr.begin("gmac.WriteFile")
	got, err := s.Session.WriteFile(f, p, n)
	s.h.tr.end(id)
	s.h.op("gmac.WriteFile", err)
	return got, err
}

// finish runs the end-of-run audits on the session's runtime: the
// manager's structural invariants, and — once the workload has freed what
// it allocated — an empty device heap.
func (s *session) finish() {
	err := s.ctx.Manager().CheckInvariants()
	s.h.check(err == nil, "CheckInvariants: %v", err)
	live := s.ctx.Manager().Device().LiveAllocs()
	s.h.check(live == 0, "device still holds %d allocations after the workload freed its objects", live)
}
