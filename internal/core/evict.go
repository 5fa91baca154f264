package core

// This file is the eviction layer: the eager write-back of blocks that
// fall out of the rolling FIFO (rolling.go, also this layer). A victim of
// another object than the faulting one is deferred and flushed by the
// entry point once it has released its own object lock.

// evictRun is a batch of consecutive rolling-cache victims: n blocks of one
// object starting at first, contiguous in host and device address space.
// Representing runs as (first, n) keeps the eviction path allocation-free —
// the member blocks are first.obj.blocks[first.index : first.index+n].
type evictRun struct {
	first *Block
	n     int
}

// flushEvicted writes a run of evicted rolling-cache victims back to the
// accelerator and downgrades them to ReadOnly, one DMA transfer and one
// mprotect per maximal still-dirty stretch. Blocks no longer Dirty (a
// racing drain flushed them) or re-queued since eviction (checkQueued; the
// cache owns them again) split the run and are skipped. On an unrecoverable
// fault the flush has already escalated (victims' object degraded, blocks
// left Dirty and writable) and the error is returned. The caller must hold
// first.obj.mu.
func (m *Manager) flushEvicted(first *Block, n int, checkQueued bool) error {
	o := first.obj
	end := first.index + n
	for i := first.index; i < end; {
		for i < end && !m.flushable(o.blocks[i], checkQueued) {
			i++
		}
		j := i
		for j < end && m.flushable(o.blocks[j], checkQueued) {
			j++
		}
		if j == i {
			break
		}
		sub := o.blocks[i]
		if err := m.flushRunEager(sub, j-i); err != nil {
			return err
		}
		m.setState(sub, j-i, StateReadOnly)
		i = j
	}
	return nil
}

// flushable reports whether an evicted block still needs its write-back.
func (m *Manager) flushable(b *Block, checkQueued bool) bool {
	return b.state == StateDirty && !(checkQueued && m.rolling.isQueued(b))
}

// deferEviction queues a victim run whose object lock the current goroutine
// does not hold. The entry points drain the queue once their own object
// lock is released, so no goroutine ever holds two Object.mu at once.
//
//adsm:noalloc
func (m *Manager) deferEviction(first *Block, n int) {
	m.evictMu.Lock()
	m.evictQ = append(m.evictQ, evictRun{first, n}) //adsm:allow noalloc: cross-object victims are rare, and the drainer takes the queue wholesale (evictQ = nil), so the occasional regrow buys lock-free iteration
	m.evictN.Store(int64(len(m.evictQ)))
	m.evictMu.Unlock()
}

// drainEvictions flushes every deferred cross-object victim run. Called by
// host entry points after releasing their object lock, and by invoke before
// the release sweep. A victim that was re-dirtied and re-queued since
// deferral is left alone (the cache owns it again); one flushed by a racing
// drain is skipped via the state check. Both cases are handled per block
// inside flushEvicted, splitting the run as needed. A goroutine that
// deferred a run drains it itself after its own unlock, so reading an
// empty queue without the lock strands nothing.
func (m *Manager) drainEvictions() {
	if m.lost.Load() {
		// The device is gone: deferred flushes are moot, and any object not
		// yet degraded switches to host-resident mode here, the sweep every
		// entry point passes through.
		m.degradeAll()
	}
	if m.evictN.Load() == 0 {
		return
	}
	m.evictMu.Lock()
	runs := m.evictQ
	m.evictQ = nil
	m.evictN.Store(0)
	m.evictMu.Unlock()
	for _, r := range runs {
		o := r.first.obj
		o.mu.Lock()
		if !o.dead && !o.degraded.Load() {
			// An unrecoverable flush has already escalated (the object is
			// degraded and keeps its data host-side); nothing further to do.
			_ = m.flushEvicted(r.first, r.n, true)
		}
		o.mu.Unlock()
	}
}
