package sim

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(5 * Microsecond)
	if c.Now() != 5000 {
		t.Fatalf("Now = %v, want 5000", c.Now())
	}
	c.AdvanceTo(3 * Microsecond) // in the past: no-op
	if c.Now() != 5000 {
		t.Fatalf("AdvanceTo past moved clock to %v", c.Now())
	}
	c.AdvanceTo(10 * Microsecond)
	if c.Now() != 10000 {
		t.Fatalf("AdvanceTo = %v, want 10000", c.Now())
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewClock().Advance(-1)
}

func TestClockMonotonicProperty(t *testing.T) {
	// Property: any sequence of Advance/AdvanceTo keeps time monotonic.
	f := func(steps []int16) bool {
		c := NewClock()
		prev := c.Now()
		for _, s := range steps {
			d := Time(s)
			if d < 0 {
				c.AdvanceTo(c.Now() + (-d))
			} else {
				c.Advance(d)
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSerialisesWork(t *testing.T) {
	c := NewClock()
	r := NewResource("dma", c)
	c1 := r.SubmitNow(100)
	c2 := r.SubmitNow(50)
	if c1.At != 100 {
		t.Fatalf("first job completes at %v, want 100", c1.At)
	}
	if c2.At != 150 {
		t.Fatalf("second job completes at %v, want 150 (serialised)", c2.At)
	}
	if c.Now() != 0 {
		t.Fatalf("submission advanced CPU clock to %v", c.Now())
	}
	stall := c2.Wait(c)
	if stall != 150 || c.Now() != 150 {
		t.Fatalf("Wait: stall=%v now=%v, want 150/150", stall, c.Now())
	}
	// Waiting again costs nothing.
	if s := c1.Wait(c); s != 0 {
		t.Fatalf("re-wait stalled %v, want 0", s)
	}
}

func TestResourceIdleGap(t *testing.T) {
	c := NewClock()
	r := NewResource("dma", c)
	r.SubmitNow(10)
	c.Advance(100) // CPU works past the job's completion
	done := r.SubmitNow(10)
	if done.At != 110 {
		t.Fatalf("job after idle gap completes at %v, want 110", done.At)
	}
}

func TestResourceSubmitEarliest(t *testing.T) {
	c := NewClock()
	r := NewResource("dma", c)
	done := r.Submit(40, 10) // dependency not ready until t=40
	if done.At != 50 {
		t.Fatalf("completion %v, want 50", done.At)
	}
}

func TestResourceNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Submit with negative duration did not panic")
		}
	}()
	NewResource("x", NewClock()).SubmitNow(-1)
}

func TestResourceOrderProperty(t *testing.T) {
	// Property: completions are non-decreasing in submission order and,
	// with the clock held at zero, the resource frees up at the sum of the
	// durations.
	f := func(durs []uint16) bool {
		c := NewClock()
		r := NewResource("r", c)
		var prev Time
		var sum Time
		for _, d := range durs {
			done := r.SubmitNow(Time(d))
			if done.At < prev {
				return false
			}
			prev = done.At
			sum += Time(d)
		}
		return r.FreeAt() == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompletionDone(t *testing.T) {
	comp := Completion{At: 100}
	if comp.Done(99) {
		t.Fatal("Done(99) for completion at 100")
	}
	if !comp.Done(100) {
		t.Fatal("!Done(100) for completion at 100")
	}
}

func TestMaxCompletion(t *testing.T) {
	m := MaxCompletion(Completion{At: 5}, Completion{At: 9}, Completion{At: 3})
	if m.At != 9 {
		t.Fatalf("MaxCompletion = %v, want 9", m.At)
	}
	if z := MaxCompletion(); z.At != 0 {
		t.Fatalf("MaxCompletion() = %v, want 0", z.At)
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown()
	b.Add(CatGPU, 70)
	b.Add(CatCPU, 20)
	b.Add(CatSignal, 10)
	if b.Total() != 100 {
		t.Fatalf("total %v, want 100", b.Total())
	}
	if got := b.Fraction(CatGPU); got != 0.7 {
		t.Fatalf("GPU fraction %v, want 0.7", got)
	}
	if got := b.Get(CatCopy); got != 0 {
		t.Fatalf("unset category = %v, want 0", got)
	}

	other := NewBreakdown()
	other.Add(CatGPU, 30)
	b.Merge(other)
	if b.Get(CatGPU) != 100 {
		t.Fatalf("merged GPU = %v, want 100", b.Get(CatGPU))
	}

	clone := b.Clone()
	clone.Add(CatCPU, 1000)
	if b.Get(CatCPU) != 20 {
		t.Fatal("Clone is not independent")
	}
}

func TestBreakdownFractionEmpty(t *testing.T) {
	if f := NewBreakdown().Fraction(CatGPU); f != 0 {
		t.Fatalf("empty breakdown fraction = %v, want 0", f)
	}
}

func TestBreakdownNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	NewBreakdown().Add(CatCPU, -1)
}

func TestBreakdownUnknownCategoryPanics(t *testing.T) {
	defer func() {
		if err, _ := recover().(runtime.Error); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("Add to an unknown category: panic %v, want an index out of range", err)
		}
	}()
	NewBreakdown().Add(Category(numCategories), 1)
}

// TestCategoryJSONKeys: a breakdown map marshals with the legend names as
// keys, as it did when Category was a string.
func TestCategoryJSONKeys(t *testing.T) {
	data, err := json.Marshal(map[Category]Time{CatCudaMalloc: 1, CatCPU: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(data), `{"CPU":2,"cudaMalloc":1}`; got != want {
		t.Fatalf("JSON = %s, want %s", got, want)
	}
}

func TestBreakdownString(t *testing.T) {
	b := NewBreakdown()
	b.Add(CatGPU, 2*Second)
	b.Add(CatCPU, 1*Second)
	got := b.String()
	want := "GPU=2.000s CPU=1.000s"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestCategoriesComplete(t *testing.T) {
	cats := Categories()
	if len(cats) != 13 {
		t.Fatalf("Categories() returned %d entries, want 13 (Fig. 10 legend)", len(cats))
	}
	seen := make(map[Category]bool)
	for _, c := range cats {
		if seen[c] {
			t.Fatalf("duplicate category %s", c)
		}
		seen[c] = true
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2500, "2.500us"},
		{3 * Millisecond, "3.000ms"},
		{1500 * Millisecond, "1.500s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}
