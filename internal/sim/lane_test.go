package sim

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestLanesOverlapCharges: N lanes each charging d model N hardware threads
// working in parallel — the clock ends at ~d (max), not N*d (sum).
func TestLanesOverlapCharges(t *testing.T) {
	c := NewClock()
	c.Advance(10 * Microsecond) // pre-existing history
	if err := c.Parallel(4, func(int) error {
		c.Advance(100 * Microsecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Now(), 110*Microsecond; got != want {
		t.Fatalf("clock after 4 parallel lanes = %v, want %v (max, not sum)", got, want)
	}
}

// TestParallel: every lane starts at the caller's time, even one held back
// until another lane has exited and merged into the shared clock; the
// caller ends at the latest lane end; every lane runs when one fails, and
// their errors are joined; and each lane has a distinct non-zero LaneID.
// The nested run calls Parallel from inside a lane whose time is ahead of
// the shared clock, so a lane seeded from its own goroutine's Now starts
// at the shared time instead and fails deterministically.
func TestParallel(t *testing.T) {
	for _, nested := range []bool{false, true} {
		c := NewClock()
		c.Advance(10 * Microsecond)
		check := func() {
			base := c.Now()
			outerID := c.LaneID()
			errFirst, errLast := errors.New("lane 0"), errors.New("lane 2")
			var ran [3]atomic.Bool
			var ids [3]uint32
			lane0 := make(chan uint64, 1)
			err := c.Parallel(3, func(i int) error {
				ran[i].Store(true)
				ids[i] = c.LaneID()
				switch i {
				case 0:
					lane0 <- goid()
				case 1:
					// Held back until lane 0 has exited and merged.
					g := <-lane0
					deadline := time.Now().Add(10 * time.Second)
					for _, active := c.lanes.lanes.Load(g); active; _, active = c.lanes.lanes.Load(g) {
						if time.Now().After(deadline) {
							t.Errorf("nested=%v: lane 0 still open 10 s after it returned", nested)
							break
						}
						runtime.Gosched()
					}
				}
				if got := c.Now(); got != base {
					t.Errorf("nested=%v: lane %d starts at %v, want %v", nested, i, got, base)
				}
				c.Advance(Time(3-i) * 40 * Microsecond)
				return []error{errFirst, nil, errLast}[i]
			})
			if got, want := c.Now(), base+120*Microsecond; got != want {
				t.Errorf("nested=%v: caller ends at %v, want the latest lane end %v", nested, got, want)
			}
			if !errors.Is(err, errFirst) || !errors.Is(err, errLast) {
				t.Errorf("nested=%v: Parallel returned %v, want both lane errors joined", nested, err)
			}
			for i := range ran {
				if !ran[i].Load() {
					t.Errorf("nested=%v: lane %d never ran", nested, i)
				}
			}
			if ids[0] == 0 || ids[1] == 0 || ids[2] == 0 || ids[0] == ids[1] || ids[1] == ids[2] || ids[0] == ids[2] || ids[0] == outerID {
				t.Errorf("nested=%v: lane ids %v (caller %d), want distinct and non-zero", nested, ids, outerID)
			}
			if got := c.LaneID(); got != outerID {
				t.Errorf("nested=%v: LaneID after Parallel = %d, want the caller's %d", nested, got, outerID)
			}
		}
		if !nested {
			check()
			if got := c.LaneID(); got != 0 {
				t.Errorf("LaneID outside any lane = %d, want 0", got)
			}
			continue
		}
		if err := c.Parallel(1, func(int) error {
			c.Advance(5 * Microsecond) // the lane runs ahead of the shared clock
			check()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got, want := c.Now(), 135*Microsecond; got != want {
			t.Errorf("clock after the nested run = %v, want %v", got, want)
		}
	}
}

// TestLaneIsolation: a lane's charges are invisible to the shared timeline
// until Parallel merges them.
func TestLaneIsolation(t *testing.T) {
	c := NewClock()
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error)

	go func() {
		done <- c.Parallel(1, func(int) error {
			c.Advance(50 * Microsecond)
			if got := c.Now(); got != 50*Microsecond {
				t.Errorf("lane Now = %v, want 50us", got)
			}
			close(entered)
			<-release
			return nil
		})
	}()

	<-entered
	if got := c.Now(); got != 0 {
		t.Fatalf("shared Now = %v while lane active, want 0", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := c.Now(); got != 50*Microsecond {
		t.Fatalf("shared Now after merge = %v, want 50us", got)
	}
}

// TestLaneAdvanceTo: AdvanceTo inside a lane moves only the lane cursor,
// and the past is still free.
func TestLaneAdvanceTo(t *testing.T) {
	c := NewClock()
	if err := c.Parallel(1, func(int) error {
		c.AdvanceTo(30 * Microsecond)
		c.AdvanceTo(20 * Microsecond) // in the past: no-op
		if got := c.Now(); got != 30*Microsecond {
			t.Errorf("lane Now = %v, want 30us", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Now(); got != 30*Microsecond {
		t.Fatalf("shared Now = %v, want 30us", got)
	}
}

// TestNoLaneSequentialSemantics: goroutines that never enter a lane keep
// the exact serial semantics — Advance sums.
func TestNoLaneSequentialSemantics(t *testing.T) {
	c := NewClock()
	c.Advance(3 * Microsecond)
	c.Advance(4 * Microsecond)
	if got := c.Now(); got != 7*Microsecond {
		t.Fatalf("sequential Advance = %v, want 7us (sum)", got)
	}
}

// TestExitLaneWithoutEnter: ExitLane on a goroutine with no lane is a
// harmless no-op returning the shared time.
func TestExitLaneWithoutEnter(t *testing.T) {
	c := NewClock()
	c.Advance(9 * Microsecond)
	if got := c.ExitLane(); got != 9*Microsecond {
		t.Fatalf("ExitLane without lane returned %v, want 9us", got)
	}
	if got := c.Now(); got != 9*Microsecond {
		t.Fatalf("shared Now perturbed to %v", got)
	}
}
