package sim

import "fmt"

// Resource models a serial hardware resource (a DMA engine, an accelerator
// compute engine, a disk). Work items submitted to a Resource execute one
// at a time in submission order; a work item submitted while the resource
// is busy starts when the resource frees up. The submitting CPU is not
// blocked — it receives a Completion and may continue doing other work.
//
// A Resource has no lock of its own: its owner serialises every call, as
// accel.Device does by holding its device lock around each Submit and
// FreeAt, so submissions from several host goroutines still serialise on
// the resource exactly as concurrent DMA requests serialise on one
// hardware engine.
type Resource struct {
	name   string
	clock  *Clock
	freeAt Time // the resource is idle from this time on
}

// NewResource returns an idle resource bound to clock.
func NewResource(name string, clock *Clock) *Resource {
	if clock == nil {
		panic("sim: NewResource requires a clock")
	}
	return &Resource{name: name, clock: clock}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Submit schedules a work item of duration d at the earliest opportunity
// not before earliest (use the clock's Now for "now"). It returns the
// completion of that work item without advancing the CPU clock.
//
//adsm:noalloc
func (r *Resource) Submit(earliest, d Time) Completion {
	if d < 0 {
		panicNegativeWork(d, r.name)
	}
	start := earliest
	if r.freeAt > start {
		start = r.freeAt
	}
	end := start + d
	r.freeAt = end
	return Completion{At: end}
}

// panicNegativeWork formats the misuse panic off the hot path.
//
//adsm:cold
func panicNegativeWork(d Time, name string) {
	panic(fmt.Sprintf("sim: negative work duration %d on %s", d, name))
}

// SubmitNow is Submit with earliest = clock.Now().
func (r *Resource) SubmitNow(d Time) Completion {
	return r.Submit(r.clock.Now(), d)
}

// FreeAt reports the time at which all currently queued work completes.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Completion is a handle on an asynchronous work item.
type Completion struct {
	// At is the virtual time at which the work item finishes.
	At Time
}

// Done reports whether the work item has finished by time now.
func (c Completion) Done(now Time) bool { return c.At <= now }

// Wait advances the clock to the completion time and returns the time the
// CPU spent stalled waiting (zero if the work already finished).
func (c Completion) Wait(clock *Clock) Time {
	stall := c.At - clock.Now()
	if stall < 0 {
		stall = 0
	}
	clock.AdvanceTo(c.At)
	return stall
}

// MaxCompletion returns the completion that finishes last.
func MaxCompletion(cs ...Completion) Completion {
	var m Completion
	for _, c := range cs {
		if c.At > m.At {
			m = c
		}
	}
	return m
}
