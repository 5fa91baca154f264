package core

import "sync"

// rollingCache is the bounded FIFO of Dirty blocks at the heart of the
// rolling-update protocol (§4.3). At most `capacity` blocks may be Dirty on
// the CPU; pushing one more evicts the oldest, which the manager flushes
// eagerly (and asynchronously) to accelerator memory.
//
// The capacity ("rolling size") adapts: every adsmAlloc grows it by a fixed
// delta (default 2 blocks), so each allocated object can keep at least one
// block dirty — the paper's heuristic for applications that touch all their
// data structures concurrently. Experiments may pin it instead (Figure 12).
//
// The cache has its own lock — faults on different objects push and evict
// concurrently — and it owns every block's queued flag: the flag is only
// read or written while holding rc.mu.
type rollingCache struct {
	//adsm:lock rollingMu 44 nowait
	mu       sync.Mutex
	queue    []*Block
	capacity int
	delta    int
	fixed    bool // capacity pinned by the experiment, no adaptation
}

// maxEvictRun bounds how many address-contiguous victims one eviction may
// coalesce into a single DMA transfer. Streaming writers fill the cache in
// address order, so without a bound a single fault could flush the whole
// cache; 16 blocks keeps individual transfers reasonably sized while still
// collapsing the transfer count by an order of magnitude.
const maxEvictRun = 16

func newRollingCache(start, delta int, fixed bool) *rollingCache {
	if delta <= 0 {
		delta = 2
	}
	return &rollingCache{capacity: start, delta: delta, fixed: fixed}
}

// onAlloc grows the rolling size, unless it is pinned.
func (rc *rollingCache) onAlloc() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if !rc.fixed {
		rc.capacity += rc.delta
	}
}

// Capacity returns the current rolling size.
func (rc *rollingCache) Capacity() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.capacity
}

// Len returns the number of queued dirty blocks.
func (rc *rollingCache) Len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.queue)
}

// isQueued reports whether b currently sits in the rolling cache.
func (rc *rollingCache) isQueued(b *Block) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return b.queued
}

// push enqueues a newly dirty block and returns the eviction run needed to
// make room: the oldest block plus up to maxEvictRun-1 address-contiguous
// successors that ride along in the same DMA transfer (victim=nil, run=0 if
// the cache has capacity). The run never includes b itself — the caller's
// CPU write has not landed yet, so flushing b here would lose it. The
// caller flushes the run.
//
//adsm:noalloc
func (rc *rollingCache) push(b *Block) (victim *Block, run int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if b.queued {
		return nil, 0
	}
	b.queued = true
	// Amortized: the FIFO reuses capacity freed by evictions, so steady
	// state never grows the backing array (rolling_test.go proves it).
	rc.queue = append(rc.queue, b) //adsm:allow noalloc: amortized; evictions return capacity to the FIFO, so steady state never grows it (rolling_test.go)
	if len(rc.queue) <= rc.capacity {
		return nil, 0
	}
	victim = rc.queue[0]
	run = 1
	for run < len(rc.queue) && run < maxEvictRun {
		next, prev := rc.queue[run], rc.queue[run-1]
		if next == b || next.obj != prev.obj || next.index != prev.index+1 {
			break
		}
		run++
	}
	for _, q := range rc.queue[:run] {
		q.queued = false
	}
	rc.queue = rc.queue[run:]
	return victim, run
}

// drain removes and returns all queued blocks (kernel invocation flush).
func (rc *rollingCache) drain() []*Block {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := rc.queue
	rc.queue = nil
	for _, b := range out {
		b.queued = false
	}
	return out
}

// forgetBlock removes one block from the queue if it is queued (bulk
// operations made it invalid without an eviction).
func (rc *rollingCache) forgetBlock(b *Block) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if !b.queued {
		return
	}
	for i, q := range rc.queue {
		if q == b {
			rc.queue = append(rc.queue[:i], rc.queue[i+1:]...)
			break
		}
	}
	b.queued = false
}

// forget removes any queued blocks belonging to obj (object being freed).
func (rc *rollingCache) forget(obj *Object) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	kept := rc.queue[:0]
	for _, b := range rc.queue {
		if b.obj == obj {
			b.queued = false
			continue
		}
		kept = append(kept, b)
	}
	rc.queue = kept
}
