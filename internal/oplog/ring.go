package oplog

import (
	"sync"
	"sync/atomic"
)

// Ring is a fixed-size op ring. It serves both recorder roles:
//
//   - the always-on flight recorder, where concurrent host goroutines
//     record while the ring silently keeps only the most recent ops;
//   - capture mode, where the ring is sized to hold a whole run and the
//     harness asserts afterwards that nothing wrapped (core.FinishOpLog).
//
// One mutex guards plain Op slots. The record path is allocation-free: a
// lock, one slot write and an unlock, two locked instructions on amd64
// where storing an op as atomic words would take one per word. Readers
// (Ops, the introspection endpoint, flight dumps) copy the slots out under
// the same lock, so they never see a torn or dropped op.
type Ring struct {
	mu     sync.Mutex
	slots  []Op
	mask   uint64
	pos    uint64 // ops ever recorded; guarded by mu
	header atomic.Pointer[Header]
}

// DefaultRingCapacity is used when NewRing is given a non-positive
// capacity.
const DefaultRingCapacity = 1 << 12

// NewRing returns a ring retaining the most recent capacity ops, rounded
// up to a power of two.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring{slots: make([]Op, n), mask: uint64(n) - 1}
}

// Record appends one op, overwriting the oldest once the ring is full.
// Safe for any number of concurrent writers; never allocates.
//
//adsm:noalloc
func (r *Ring) Record(op Op) {
	r.mu.Lock()
	r.slots[r.pos&r.mask] = op
	r.pos++
	r.mu.Unlock()
}

// Capacity returns the number of ops the ring retains.
func (r *Ring) Capacity() int { return len(r.slots) }

// Total returns the number of ops ever recorded.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pos
}

// Wrapped reports whether the ring has overwritten old ops: in capture
// mode this means the stream is incomplete and the capacity must be
// raised.
func (r *Ring) Wrapped() bool { return r.Total() > uint64(len(r.slots)) }

// SetHeader attaches the replay header describing the recorded
// configuration.
func (r *Ring) SetHeader(h Header) { r.header.Store(&h) }

// Header returns the attached replay header (zero value if none was set).
func (r *Ring) Header() Header {
	if h := r.header.Load(); h != nil {
		return *h
	}
	return Header{}
}

// Reset discards all recorded ops; it exists for harnesses that reuse the
// process-wide flight ring across isolated runs.
func (r *Ring) Reset() {
	r.mu.Lock()
	r.pos = 0
	clear(r.slots)
	r.mu.Unlock()
}

// Ops returns a snapshot of the retained ops, oldest first.
func (r *Ring) Ops() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	first := r.pos - min(r.pos, uint64(len(r.slots)))
	out := make([]Op, 0, r.pos-first)
	for i := first; i < r.pos; i++ {
		out = append(out, r.slots[i&r.mask])
	}
	return out
}

// Snapshot packages the ring's current contents and header as a Log
// (Totals and Metrics left for the caller).
func (r *Ring) Snapshot() *Log {
	return &Log{Header: r.Header(), Ops: r.Ops()}
}
