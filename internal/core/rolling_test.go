package core

import (
	"math/rand"
	"sync"
	"testing"
)

// newTestBlocks builds objs×perObj bare blocks (enough structure for the
// rolling cache: identity, object, index) without a Manager.
func newTestBlocks(objs, perObj int) [][]*Block {
	out := make([][]*Block, objs)
	for o := range out {
		obj := &Object{}
		blocks := make([]*Block, perObj)
		for i := range blocks {
			blocks[i] = &Block{obj: obj, index: i, size: 4096}
		}
		obj.blocks = blocks
		out[o] = blocks
	}
	return out
}

// checkInvariants asserts, under rc.mu, the structural invariants of the
// rolling cache: occupancy never exceeds capacity, the queue holds no
// duplicates, and the queued flag on every known block agrees exactly with
// queue membership.
func checkInvariants(t *testing.T, rc *rollingCache, all [][]*Block) {
	t.Helper()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if len(rc.queue) > rc.capacity {
		t.Fatalf("queue length %d exceeds capacity %d", len(rc.queue), rc.capacity)
	}
	member := make(map[*Block]bool, len(rc.queue))
	for _, b := range rc.queue {
		if member[b] {
			t.Fatalf("block %p queued twice", b)
		}
		member[b] = true
		if !b.queued {
			t.Fatalf("block %p in queue with queued=false", b)
		}
	}
	for _, obj := range all {
		for _, b := range obj {
			if b.queued != member[b] {
				t.Fatalf("block %p queued=%v but membership=%v", b, b.queued, member[b])
			}
		}
	}
}

// TestRollingCacheProperties storms a shared rolling cache from many
// goroutines (push, drain, forget, adaptive growth) and checks the
// structural invariants throughout. Run under -race this doubles as the
// lock-discipline check for the queued flag.
func TestRollingCacheProperties(t *testing.T) {
	const (
		goroutines = 8
		opsPerG    = 4000
		objs       = 4
		perObj     = 64
	)
	rc := newRollingCache(4, 2, false)
	all := newTestBlocks(objs, perObj)

	var capMu sync.Mutex
	lastCap := rc.Capacity()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerG; i++ {
				switch op := rng.Intn(100); {
				case op < 70: // push a random block
					b := all[rng.Intn(objs)][rng.Intn(perObj)]
					victim, run := rc.push(b)
					if victim == nil && run != 0 {
						t.Errorf("push returned run=%d with nil victim", run)
					}
					if run > maxEvictRun {
						t.Errorf("eviction run %d exceeds maxEvictRun %d", run, maxEvictRun)
					}
					for k := 0; k < run; k++ {
						// The run is address-contiguous within one object and
						// never reaches past its block slice.
						if victim.index+k >= len(victim.obj.blocks) {
							t.Errorf("run of %d overruns object at index %d", run, victim.index)
							break
						}
						if evicted := victim.obj.blocks[victim.index+k]; evicted == b {
							t.Error("eviction run includes the just-pushed block")
						}
					}
				case op < 80: // kernel-invocation drain
					for _, b := range rc.drain() {
						_ = b
					}
				case op < 88: // bulk invalidation of one block
					rc.forgetBlock(all[rng.Intn(objs)][rng.Intn(perObj)])
				case op < 93: // object free
					rc.forget(all[rng.Intn(objs)][0].obj)
				case op < 97: // adsmAlloc grows the rolling size
					rc.onAlloc()
				default:
					_ = rc.Len()
					capMu.Lock() // before the read: readers must compare in the order they read
					c := rc.Capacity()
					if c < lastCap {
						t.Errorf("capacity shrank: %d after %d", c, lastCap)
					}
					if c > lastCap {
						lastCap = c
					}
					capMu.Unlock()
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	checkInvariants(t, rc, all)

	// Drain everything: every queued flag must clear.
	rc.drain()
	for _, obj := range all {
		for _, b := range obj {
			if b.queued {
				t.Fatalf("block %p still queued after full drain", b)
			}
		}
	}
	if rc.Len() != 0 {
		t.Fatalf("queue not empty after drain: %d", rc.Len())
	}
}

// TestRollingCacheInvariantsSequential interleaves invariant checks between
// operations (the concurrent storm can only check at the end without
// serializing the whole test).
func TestRollingCacheInvariantsSequential(t *testing.T) {
	rc := newRollingCache(2, 2, false)
	all := newTestBlocks(3, 32)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		switch op := rng.Intn(10); {
		case op < 6:
			rc.push(all[rng.Intn(3)][rng.Intn(32)])
		case op < 7:
			rc.drain()
		case op < 8:
			rc.forgetBlock(all[rng.Intn(3)][rng.Intn(32)])
		case op < 9:
			rc.forget(all[rng.Intn(3)][0].obj)
		default:
			rc.onAlloc()
		}
		checkInvariants(t, rc, all)
	}
}

// TestRollingCacheCoalescing pins the eviction-run shape: address-contiguous
// same-object victims coalesce (up to maxEvictRun), discontiguities and
// object boundaries split runs, and the just-pushed block never rides along.
func TestRollingCacheCoalescing(t *testing.T) {
	// Fresh blocks per subtest: the queued flag lives on the block, so
	// sharing them would leak state between the scenarios.
	var a, b []*Block
	fresh := func() {
		all := newTestBlocks(2, 64)
		a, b = all[0], all[1]
	}

	fresh()
	t.Run("contiguous run", func(t *testing.T) {
		rc := newRollingCache(4, 2, true)
		for i := 0; i < 4; i++ {
			if v, _ := rc.push(a[i]); v != nil {
				t.Fatalf("premature eviction at %d", i)
			}
		}
		v, run := rc.push(a[10])
		if v != a[0] || run != 4 {
			t.Fatalf("push = (%v, %d), want (a[0], 4)", v, run)
		}
		if rc.Len() != 1 {
			t.Fatalf("queue len %d after coalesced eviction, want 1", rc.Len())
		}
	})

	fresh()
	t.Run("run excludes pushed block", func(t *testing.T) {
		rc := newRollingCache(2, 2, true)
		rc.push(a[0])
		rc.push(a[1])
		// a[2] would extend the run a[0],a[1] — but it is the trigger.
		v, run := rc.push(a[2])
		if v != a[0] || run != 2 {
			t.Fatalf("push = (%v, %d), want (a[0], 2)", v, run)
		}
		if !rc.isQueued(a[2]) {
			t.Fatal("pushed block evicted with its own run")
		}
	})

	fresh()
	t.Run("object boundary splits run", func(t *testing.T) {
		rc := newRollingCache(2, 2, true)
		rc.push(a[0])
		rc.push(b[1])
		if v, run := rc.push(a[5]); v != a[0] || run != 1 {
			t.Fatalf("push = (%v, %d), want (a[0], 1)", v, run)
		}
	})

	fresh()
	t.Run("discontiguity splits run", func(t *testing.T) {
		rc := newRollingCache(2, 2, true)
		rc.push(a[0])
		rc.push(a[2])
		if v, run := rc.push(a[5]); v != a[0] || run != 1 {
			t.Fatalf("push = (%v, %d), want (a[0], 1)", v, run)
		}
	})

	fresh()
	t.Run("run bounded by maxEvictRun", func(t *testing.T) {
		rc := newRollingCache(32, 2, true)
		for i := 0; i < 32; i++ {
			rc.push(a[i])
		}
		if v, run := rc.push(a[40]); v != a[0] || run != maxEvictRun {
			t.Fatalf("push = (%v, %d), want (a[0], %d)", v, run, maxEvictRun)
		}
	})

}
