package main

import (
	"testing"

	"repro/internal/sim"
)

// TestHostThreadsPins pins `gmacbench -small -hostthreads N` for N = 1–4:
// the same fixed storm of faults and evictions at every N, with a virtual
// time that falls as the N host lanes overlap. The times are exact, so a
// lane that starts late, merges its end twice or never merges it changes
// them.
func TestHostThreadsPins(t *testing.T) {
	for _, c := range []struct {
		threads int
		virt    sim.Time
	}{
		{1, 6_466_488},
		{2, 3_233_244},
		{3, 2_155_496},
		{4, 1_616_622},
	} {
		r, err := hostThreads(c.threads, true)
		if err != nil {
			t.Fatalf("threads=%d: %v", c.threads, err)
		}
		const faults, evictions = 252, 168
		if r.stats.Faults != faults || r.stats.Evictions != evictions || r.virt != c.virt {
			t.Errorf("threads=%d: faults=%d evictions=%d virt=%d ns, want %d, %d and %d ns",
				c.threads, r.stats.Faults, r.stats.Evictions, int64(r.virt), faults, evictions, int64(c.virt))
		}
	}
}
