// Package sim provides the deterministic virtual-time engine every other
// component of the simulated heterogeneous machine is built on.
//
// Time is modelled as a single logical CPU timeline (the Clock) plus any
// number of serial resources (DMA engines, accelerator compute engines,
// disks) that can perform work asynchronously with respect to the CPU.
// Synchronisation points advance the CPU clock to the completion time of
// the awaited operation, which is exactly how overlap between CPU work and
// DMA transfers manifests in the paper's measurements.
package sim

import (
	"fmt"
	"sync/atomic"
)

// Time is a point in (or duration of) virtual time, in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1e3
	Millisecond Time = 1e6
	Second      Time = 1e9
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Milliseconds reports t as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/1e6)
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/1e3)
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Clock is the logical CPU timeline. The zero value is a clock at time 0.
//
// The clock is safe for concurrent use: with several host goroutines in
// flight (concurrent fault handling, parallel multi-GPU dispatch) each
// goroutine's charges land atomically, so the timeline stays monotonic and
// no charge is lost. Single-threaded runs see exactly the sequential
// semantics.
type Clock struct {
	now   atomic.Int64
	lanes laneSet
}

// NewClock returns a clock starting at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time: the calling goroutine's lane time
// if it runs in a lane (see Parallel), the shared time otherwise.
func (c *Clock) Now() Time {
	if l := c.lanes.current(); l != nil {
		return Time(l.now)
	}
	return Time(c.now.Load())
}

// Advance moves the clock forward by d, which must be non-negative.
// It models serial CPU work of duration d on the calling goroutine's
// timeline (its lane if one is active, the shared timeline otherwise).
//
//adsm:noalloc
func (c *Clock) Advance(d Time) {
	if d < 0 {
		panicNegativeAdvance(d)
	}
	if l := c.lanes.current(); l != nil {
		l.now += int64(d)
		return
	}
	c.now.Add(int64(d))
}

// panicNegativeAdvance formats the misuse panic off the hot path.
//
//adsm:cold
func panicNegativeAdvance(d Time) {
	panic(fmt.Sprintf("sim: negative clock advance %d", d))
}

// AdvanceTo moves the clock forward to t. If t is in the past the clock is
// unchanged: waiting for an already-completed event costs nothing.
func (c *Clock) AdvanceTo(t Time) {
	if l := c.lanes.current(); l != nil {
		if int64(t) > l.now {
			l.now = int64(t)
		}
		return
	}
	for {
		now := c.now.Load()
		if int64(t) <= now || c.now.CompareAndSwap(now, int64(t)) {
			return
		}
	}
}
