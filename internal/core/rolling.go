package core

import (
	"slices"
	"sync"
)

// rollingCache is the bounded FIFO of Dirty blocks at the heart of the
// rolling-update protocol (§4.3). At most `capacity` blocks may be Dirty on
// the CPU; pushing one more evicts the oldest, which the manager flushes
// eagerly (and asynchronously) to accelerator memory.
//
// The capacity ("rolling size") adapts: every adsmAlloc grows it by
// RollingDelta blocks, so each allocated object can keep at least one
// block dirty — the paper's heuristic for applications that touch all their
// data structures concurrently. Experiments may pin it instead (Figure 12).
//
// The cache has its own lock — faults on different objects push and evict
// concurrently — and it owns every block's queued flag: the flag is only
// read or written while holding rc.mu.
type rollingCache struct {
	//adsm:lock rollingMu 44 nowait
	mu sync.Mutex
	// queue is the FIFO, oldest first, and a window into buf: evictions
	// vacate buf's front, push moves the window back over it, and drain
	// keeps buf, so a steady state never reallocates. Slots of buf outside
	// the window are nil, so buf keeps no freed object reachable.
	queue, buf []*Block
	capacity   int
	fixed      bool // capacity pinned by the experiment, no adaptation
}

// RollingDelta is the rolling size's growth per allocation, in blocks: the
// paper's value, and the one recorded in every op-log header.
const RollingDelta = 2

// maxEvictRun bounds how many address-contiguous victims one eviction may
// coalesce into a single DMA transfer. Streaming writers fill the cache in
// address order, so without a bound a single fault could flush the whole
// cache; 16 blocks keeps individual transfers reasonably sized while still
// collapsing the transfer count by an order of magnitude.
const maxEvictRun = 16

func newRollingCache(start int, fixed bool) *rollingCache {
	return &rollingCache{capacity: start, fixed: fixed}
}

// onAlloc grows the rolling size, unless it is pinned.
func (rc *rollingCache) onAlloc() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if !rc.fixed {
		rc.capacity += RollingDelta
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
	grow := len(rc.queue) == cap(rc.queue)
	if vacated := cap(rc.buf) - cap(rc.queue); grow && vacated > 0 && vacated >= len(rc.queue) {
		// The window reached the end of buf, and evictions vacated at least
		// as much in front of it: slide it back instead of reallocating.
		rc.queue = rc.buf[:copy(rc.buf[:cap(rc.buf)], rc.queue)]
		clear(rc.buf[len(rc.queue):cap(rc.buf)])
		grow = false
	}
	rc.queue = append(rc.queue, b) //adsm:allow noalloc: amortized; grows buf only past its high-water mark, so a steady state allocates nothing (TestCostModel)
	if grow {
		rc.buf = rc.queue
	}
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
	clear(rc.queue[:run])
	rc.queue = rc.queue[run:]
	return victim, run
}

// drain removes and returns all queued blocks (kernel invocation flush). The
// caller walks the copy after rc.mu is released, while faults push into buf.
func (rc *rollingCache) drain() []*Block {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := slices.Clone(rc.queue)
	clear(rc.queue)
	rc.queue = rc.buf[:0]
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
	if i := slices.Index(rc.queue, b); i >= 0 {
		rc.queue = slices.Delete(rc.queue, i, i+1)
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
	clear(rc.queue[len(kept):])
	rc.queue = kept
}
