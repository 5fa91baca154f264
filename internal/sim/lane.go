package sim

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// A lane is a private timeline for one simulated host hardware thread.
//
// The base Clock models a single-threaded host: Advance sums every
// goroutine's CPU charges onto one timeline. The paper's testbed, however,
// is a four-core machine, and GMAC's fault handling runs on whichever core
// touched the shared object — concurrent fault storms on different objects
// overlap on real hardware. Parallel runs each simulated host thread in
// that model: its charges accumulate on a private cursor seeded from the
// caller's time, and only merge back (AdvanceTo-max, i.e. parallel
// composition) when it returns. Goroutines that never run in a lane keep
// the exact sequential semantics, so existing deterministic experiments
// are unaffected.
//
// Lanes are keyed by goroutine, so the Clock API is unchanged for all
// charging code: Manager, MMU, devices and engines charge the same Clock
// and transparently land on the caller's lane when one is active.
type lane struct {
	now int64
	// id is the lane's dense process-lifetime identity (1-based; 0 means
	// "no lane"). Consumers that attribute work to host threads — the op
	// stream's Op.Lane field, and the race detector built on it — use the
	// id, not the goroutine id, so identities stay small and stable.
	id uint32
}

// goid returns the calling goroutine's id, parsed from the runtime stack
// header ("goroutine 123 [running]:"). Only taken on lane-aware paths, and
// only when at least one lane is active.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	// Skip "goroutine " (10 bytes), then read digits.
	var id uint64
	for _, ch := range buf[10:n] {
		if ch < '0' || ch > '9' {
			break
		}
		id = id*10 + uint64(ch-'0')
	}
	return id
}

// laneSet tracks the active lanes of a Clock. nactive lets the common
// no-lanes case skip the goroutine-id lookup entirely.
type laneSet struct {
	nactive atomic.Int64
	lanes   sync.Map // goid -> *lane
	// seq issues dense lane ids; ids are never reused within a clock.
	seq atomic.Uint32
}

//adsm:noalloc
func (s *laneSet) current() *lane {
	if s.nactive.Load() == 0 {
		return nil
	}
	if v, ok := s.lanes.Load(goid()); ok { //adsm:allow noalloc: only reached with lanes active; the hot-path fault benchmarks run laneless and take the nactive fast path above
		return v.(*lane)
	}
	return nil
}

// Parallel runs f(0), …, f(n-1) as n simulated host threads and waits for
// them. Each runs on its own goroutine inside a lane seeded at the
// caller's current time, so its Advance/AdvanceTo charges accumulate
// privately and its Now observes its own timeline; the seed is captured
// once, before any goroutine starts, which keeps every lane's timeline
// independent of scheduling order. When all have returned, the caller's
// timeline advances to the latest lane end: the threads composed in
// parallel, not in series. Every f runs even if another fails, and
// Parallel returns their errors joined. It may be called from inside a
// lane; the new lanes then start at that lane's time.
func (c *Clock) Parallel(n int, f func(i int) error) error {
	base := c.Now()
	errs := make([]error, n)
	ends := make([]Time, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.EnterLaneAt(base)
			defer func() { ends[i] = c.ExitLane() }()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	for _, t := range ends {
		c.AdvanceTo(t)
	}
	return errors.Join(errs...)
}

// EnterLaneAt gives the calling goroutine a private timeline seeded at t,
// until ExitLane on the same goroutine. Lanes do not nest.
//
// Deprecated: use Parallel, which pairs the enter and exit of every lane
// and merges the lane ends into the caller's timeline.
func (c *Clock) EnterLaneAt(t Time) {
	c.lanes.lanes.Store(goid(), &lane{now: int64(t), id: c.lanes.seq.Add(1)})
	c.lanes.nactive.Add(1)
}

// LaneID returns the calling goroutine's lane identity: a small dense id
// assigned when the lane is entered, or 0 when the goroutine runs on the
// shared timeline. Goroutines that never enter a lane — the whole
// single-threaded world — take the nactive fast path and never look up
// their goroutine id.
//
//adsm:noalloc
func (c *Clock) LaneID() uint32 {
	if l := c.lanes.current(); l != nil {
		return l.id
	}
	return 0
}

// ExitLane merges the calling goroutine's lane back into the shared
// timeline: the shared clock advances to the lane's time if that is later
// (waiting for the slowest hardware thread), and subsequent charges from
// this goroutine revert to the shared timeline. It returns the lane's end
// time so a coordinating goroutine can AdvanceTo the slowest worker on its
// own timeline.
//
// Deprecated: use Parallel, which exits every lane it enters.
func (c *Clock) ExitLane() Time {
	v, ok := c.lanes.lanes.LoadAndDelete(goid())
	if !ok {
		return Time(c.now.Load())
	}
	c.lanes.nactive.Add(-1)
	end := Time(v.(*lane).now)
	// Merge on the shared timeline directly: the lane is gone, so this
	// goroutine's AdvanceTo would otherwise race with a lane re-entry.
	for {
		now := c.now.Load()
		if int64(end) <= now || c.now.CompareAndSwap(now, int64(end)) {
			return end
		}
	}
}
