// Package trace is the ADSM runtime's debug view of a run: the protocol
// events the manager emits (page faults, block state transitions,
// transfers, evictions and API events, each an oplog.Op stamped with
// virtual time) and the timed spans around them. It is the observability
// surface the original GMAC exposed through its debug build — here it also
// powers the cmd/adsmtrace demonstration, the introspection endpoint's
// /adsm/trace and white-box protocol tests.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/oplog"
	"repro/internal/sim"
)

// SpanID identifies one span within a Tracer. Zero is "no span" — the
// manager uses it as the disabled sentinel — so real IDs start at 1.
type SpanID uint64

// Span is one completed timed operation: an API call (Invoke, Sync), a
// fault resolution, or a block transfer nested inside one of those. Parent
// links spans into a tree, so a run can be rendered as a flame chart.
type Span struct {
	ID     SpanID   `json:"id"`
	Parent SpanID   `json:"parent,omitempty"`
	Name   string   `json:"name"`
	Note   string   `json:"note,omitempty"`
	Start  sim.Time `json:"start_ns"`
	End    sim.Time `json:"end_ns"`
}

// Duration returns the span's virtual duration.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Renderer turns one recorded event op into its display form: the event
// name, the from/to pair of a transition and a note, each "" when the op
// has none. The runtime that records into a Tracer installs its renderer
// (SetRenderer); without one an op shows as its kind name alone.
type Renderer func(op oplog.Op) (name, from, to, note string)

// Tracer keeps one run's instantaneous protocol events, as the oplog.Ops
// the runtime emitted, in a bounded op ring, and brackets timed
// operations into Spans with Begin/End. Spans may be opened from several
// goroutines at once (one Context driven by several host threads): End
// closes exactly the span it names, and a span's Parent is the innermost
// span open at its Begin, whichever goroutine opened that one. The Tracer
// is mutex-protected, so the introspection endpoint can read it while the
// run is in flight.
type Tracer struct {
	events *oplog.Ring

	mu       sync.Mutex
	renderer Renderer
	spans    []Span // bounded ring of completed spans
	next     int
	total    int64
	nextID   SpanID
	open     []Span // in-flight spans (End not yet seen), in Begin order
}

// NewTracer returns a tracer retaining the most recent capacity completed
// spans and capacity events (rounded up to a power of two); a
// non-positive capacity selects 1024.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Tracer{
		events: oplog.NewRing(capacity),
		spans:  make([]Span, 0, capacity),
	}
}

// SetRenderer installs the rendering WriteText and WriteJSON give events.
func (t *Tracer) SetRenderer(r Renderer) {
	t.mu.Lock()
	t.renderer = r
	t.mu.Unlock()
}

// Record appends one event op, evicting the oldest once the ring is full.
//
//adsm:noalloc
func (t *Tracer) Record(op oplog.Op) { t.events.Record(op) }

// Events returns the retained event ops, oldest first.
func (t *Tracer) Events() []oplog.Op { return t.events.Ops() }

// TotalEvents returns the number of event ops ever recorded.
func (t *Tracer) TotalEvents() uint64 { return t.events.Total() }

// render is the installed Renderer, or the kind name alone.
func (t *Tracer) render() Renderer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.renderer != nil {
		return t.renderer
	}
	return func(op oplog.Op) (name, from, to, note string) { return op.Kind.String(), "", "", "" }
}

// Begin opens a span at virtual time `at`. Its parent is the innermost
// span still open, if any.
//
//adsm:noalloc
func (t *Tracer) Begin(name, note string, at sim.Time) SpanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := Span{ID: t.nextID, Name: name, Note: note, Start: at}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1].ID
	}
	t.open = append(t.open, s) //adsm:allow noalloc: amortized; the open-span stack keeps its capacity across spans, so steady state never grows it
	return s.ID
}

// End closes the span with the given id at virtual time `at`. Spans opened
// after it stay open until their own End.
//
//adsm:noalloc
func (t *Tracer) End(id SpanID, at sim.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.open) - 1; i >= 0; i-- {
		if s := t.open[i]; s.ID == id {
			t.open = append(t.open[:i], t.open[i+1:]...) //adsm:allow noalloc: removal shifts within the existing backing array
			s.End = at
			t.record(s)
			return
		}
	}
}

// record appends a completed span to the bounded ring. Caller holds t.mu.
//
//adsm:noalloc
func (t *Tracer) record(s Span) {
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s) //adsm:allow noalloc: guarded by len < cap, so the preallocated ring's backing array never grows
	} else {
		t.spans[t.next] = s
		t.next = (t.next + 1) % len(t.spans)
	}
	t.total++
}

// Spans returns the retained completed spans, oldest first.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	out = append(out, t.spans[t.next:]...)
	out = append(out, t.spans[:t.next]...)
	return out
}

// TotalSpans returns the number of spans ever completed.
func (t *Tracer) TotalSpans() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// WriteText writes the retained events, oldest first, one line each: time,
// name, range, from->to and note.
func (t *Tracer) WriteText(w io.Writer) error {
	render := t.render()
	bw := bufio.NewWriter(w)
	for _, op := range t.Events() {
		name, from, to, note := render(op)
		fmt.Fprintf(bw, "%12s  %-6s", op.At, name)
		if op.Size > 0 {
			fmt.Fprintf(bw, " [%#x,+%d)", uint64(op.Addr), op.Size)
		}
		if from != "" || to != "" {
			fmt.Fprintf(bw, " %s->%s", from, to)
		}
		if note != "" {
			fmt.Fprintf(bw, " %s", note)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteJSON exports the retained spans and events in the Chrome
// trace_event format (the JSON Array Format with metadata wrapper), ready
// to load into chrome://tracing or Perfetto. Spans become complete ("X")
// events; protocol events become instant ("i") events. Virtual nanoseconds
// map onto the format's microsecond timestamps.
func (t *Tracer) WriteJSON(w io.Writer) error {
	type chromeEvent struct {
		Name  string         `json:"name"`
		Cat   string         `json:"cat"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"`
		Dur   *float64       `json:"dur,omitempty"`
		Scope string         `json:"s,omitempty"`
		PID   int            `json:"pid"`
		TID   int            `json:"tid"`
		Args  map[string]any `json:"args,omitempty"`
	}
	us := func(d sim.Time) float64 { return float64(d) / 1e3 }

	spans, ops, render := t.Spans(), t.Events(), t.render()
	events := make([]chromeEvent, 0, len(spans)+len(ops))
	for _, s := range spans {
		dur := us(s.Duration())
		args := map[string]any{"id": uint64(s.ID)}
		if s.Parent != 0 {
			args["parent"] = uint64(s.Parent)
		}
		if s.Note != "" {
			args["note"] = s.Note
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "adsm", Phase: "X",
			TS: us(s.Start), Dur: &dur, PID: 1, TID: 1, Args: args,
		})
	}
	for _, op := range ops {
		name, from, to, note := render(op)
		args := map[string]any{}
		if op.Size > 0 {
			args["addr"] = fmt.Sprintf("%#x", uint64(op.Addr))
			args["size"] = op.Size
		}
		if from != "" || to != "" {
			args["from"], args["to"] = from, to
		}
		if note != "" {
			args["note"] = note
		}
		events = append(events, chromeEvent{
			Name: name, Cat: "event", Phase: "i",
			TS: us(op.At), Scope: "t", PID: 1, TID: 2, Args: args,
		})
	}

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	for i, ev := range events {
		if i > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
