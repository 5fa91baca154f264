package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/oplog"
	"repro/internal/sim"
)

func TestSpanNestingAndParents(t *testing.T) {
	tr := NewTracer(16)
	inv := tr.Begin("invoke", "scale", 100)
	fl := tr.Begin("flush", "", 110)
	tr.End(fl, 150)
	tr.End(inv, 200)
	top := tr.Begin("sync", "", 300)
	tr.End(top, 400)

	spans := tr.Spans()
	if len(spans) != 3 || tr.TotalSpans() != 3 {
		t.Fatalf("got %d spans (total %d), want 3", len(spans), tr.TotalSpans())
	}
	// Completed innermost-first.
	if spans[0].Name != "flush" || spans[0].Parent != inv {
		t.Fatalf("flush span = %+v, want parent %d", spans[0], inv)
	}
	if spans[1].Name != "invoke" || spans[1].Parent != 0 {
		t.Fatalf("invoke span = %+v, want no parent", spans[1])
	}
	if d := spans[0].Duration(); d != 40 {
		t.Fatalf("flush duration = %v, want 40", d)
	}
	if spans[2].Parent != 0 {
		t.Fatalf("sync span has stale parent %d", spans[2].Parent)
	}
}

// TestEndClosesOnlyItsSpan: End closes the span it names and no other,
// so spans of two goroutines tracing one manager keep their own ends.
func TestEndClosesOnlyItsSpan(t *testing.T) {
	tr := NewTracer(16)
	a := tr.Begin("invoke", "", 10)
	b := tr.Begin("flush", "", 20)
	tr.End(a, 50)
	tr.End(b, 70)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].ID != a || spans[0].End != 50 {
		t.Fatalf("span A = %+v, want end 50", spans[0])
	}
	if spans[1].ID != b || spans[1].Parent != a || spans[1].End != 70 {
		t.Fatalf("span B = %+v, want parent %d and end 70", spans[1], a)
	}
}

func TestWriteJSONChromeFormat(t *testing.T) {
	tr := NewTracer(16)
	id := tr.Begin("fault", "write in Invalid", 1000)
	tr.Record(oplog.Op{At: 1200, Kind: oplog.OpFetch, Addr: 0x1000, Size: 4096})
	tr.End(id, 2000)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d trace events, want 2", len(doc.TraceEvents))
	}
	x := doc.TraceEvents[0]
	if x.Name != "fault" || x.Phase != "X" || x.TS != 1.0 || x.Dur != 1.0 {
		t.Fatalf("span event = %+v", x)
	}
	i := doc.TraceEvents[1]
	if i.Name != "fetch" || i.Phase != "i" {
		t.Fatalf("instant event = %+v", i)
	}
}

// TestTracerConcurrentReaders has several writers (host threads driving
// one manager) and concurrent readers (the introspection endpoint). Every
// span keeps the end its own writer gave it.
func TestTracerConcurrentReaders(t *testing.T) {
	tr := NewTracer(32)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = tr.Spans()
					var buf bytes.Buffer
					_ = tr.WriteJSON(&buf)
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				at := sim.Time(i * 10)
				id := tr.Begin("fault", "", at)
				tr.Record(oplog.Op{At: at, Kind: oplog.OpFault})
				tr.End(id, at+1)
			}
		}()
	}
	writers.Wait()
	close(done)
	wg.Wait()
	if tr.TotalSpans() != 2000 || tr.TotalEvents() != 2000 {
		t.Fatalf("total spans = %d, events = %d, want 2000 each", tr.TotalSpans(), tr.TotalEvents())
	}
	for _, s := range tr.Spans() {
		if s.Duration() != 1 {
			t.Fatalf("span %+v closed by another writer's End", s)
		}
	}
}

// TestEventString pins WriteText's line: time, name, range, from->to and
// note, as the installed Renderer names them.
func TestEventString(t *testing.T) {
	tr := NewTracer(4)
	tr.SetRenderer(func(oplog.Op) (name, from, to, note string) {
		return "state", "ReadOnly", "Dirty", "w"
	})
	tr.Record(oplog.Op{At: sim.Millisecond, Kind: oplog.OpTransition, Addr: 0x1000, Size: 4096})
	var sb strings.Builder
	if err := tr.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if got, want := sb.String(), "     1.000ms  state  [0x1000,+4096) ReadOnly->Dirty w\n"; got != want {
		t.Fatalf("event line = %q, want %q", got, want)
	}
}

func TestZeroCapacityDefaults(t *testing.T) {
	tr := NewTracer(0)
	for i := 0; i < 2000; i++ {
		tr.Record(oplog.Op{Kind: oplog.OpFault})
		tr.End(tr.Begin("fault", "", sim.Time(i)), sim.Time(i))
	}
	if n := len(tr.Events()); n != 1024 {
		t.Fatalf("default event capacity = %d", n)
	}
	if n := len(tr.Spans()); n != 1024 {
		t.Fatalf("default span capacity = %d", n)
	}
	var sb strings.Builder
	if err := tr.WriteText(&sb); err != nil || !strings.Contains(sb.String(), "fault") {
		t.Fatalf("WriteText lost events (err %v)", err)
	}
}
