package mem

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrOutOfMemory is returned when an allocation cannot be satisfied.
var ErrOutOfMemory = errors.New("mem: out of memory")

// ErrBadFree is returned when freeing an address that is not the start of a
// live allocation.
var ErrBadFree = errors.New("mem: free of unallocated address")

// Allocator hands out address ranges from a fixed arena using first-fit
// with coalescing on free. The simulated accelerator uses one Allocator for
// its on-board memory; GMAC's adsmAlloc allocates through it exactly as the
// real implementation allocates through cudaMalloc. It is safe for
// concurrent use, like the driver allocator it models.
type Allocator struct {
	base  Addr
	size  int64
	align int64
	mu    sync.Mutex
	free  []span         // sorted by addr, non-adjacent (coalesced)
	live  map[Addr]int64 // allocation start -> size
}

type span struct {
	addr Addr
	size int64
}

// NewAllocator manages [base, base+size) with the given allocation
// alignment (every returned address and every internal size is a multiple
// of align). Align must be a power of two.
func NewAllocator(base Addr, size int64, align int64) *Allocator {
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	if size < 0 || int64(base)%align != 0 {
		panic(fmt.Sprintf("mem: bad arena [%#x,+%d) for align %d", uint64(base), size, align))
	}
	return &Allocator{
		base:  base,
		size:  size,
		align: align,
		free:  []span{{addr: base, size: size}},
		live:  make(map[Addr]int64),
	}
}

func (a *Allocator) roundUp(n int64) int64 {
	return (n + a.align - 1) &^ (a.align - 1)
}

// Alloc returns the base address of a free range of at least size bytes.
func (a *Allocator) Alloc(size int64) (Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("mem: invalid allocation size %d", size)
	}
	need := a.roundUp(size)
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, s := range a.free {
		if s.size < need {
			continue
		}
		addr := s.addr
		if s.size == need {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i] = span{addr: s.addr + Addr(need), size: s.size - need}
		}
		a.live[addr] = need
		return addr, nil
	}
	return 0, fmt.Errorf("%w: %d bytes requested, %d free in largest hole",
		ErrOutOfMemory, size, a.largestHole())
}

func (a *Allocator) largestHole() int64 {
	var m int64
	for _, s := range a.free {
		if s.size > m {
			m = s.size
		}
	}
	return m
}

// Free releases the allocation that begins at addr.
func (a *Allocator) Free(addr Addr) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	size, ok := a.live[addr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadFree, uint64(addr))
	}
	delete(a.live, addr)
	a.insertFree(span{addr: addr, size: size})
	return nil
}

func (a *Allocator) insertFree(s span) {
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].addr > s.addr })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = s
	// Coalesce with the successor, then the predecessor.
	if i+1 < len(a.free) && a.free[i].addr+Addr(a.free[i].size) == a.free[i+1].addr {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].addr+Addr(a.free[i-1].size) == a.free[i].addr {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// Live returns the number of live allocations.
func (a *Allocator) Live() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.live)
}

// CheckInvariants verifies the internal consistency of the allocator: free
// spans are sorted, non-overlapping, non-adjacent, inside the arena, and
// together with live allocations cover exactly the arena. It is used by the
// property tests.
func (a *Allocator) CheckInvariants() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var total int64
	prevEnd := Addr(0)
	for i, s := range a.free {
		if s.size <= 0 {
			return fmt.Errorf("free span %d has size %d", i, s.size)
		}
		if s.addr < a.base || s.addr+Addr(s.size) > a.base+Addr(a.size) {
			return fmt.Errorf("free span %d outside arena", i)
		}
		if i > 0 && s.addr <= prevEnd {
			return fmt.Errorf("free spans %d and %d overlap or touch (missed coalesce)", i-1, i)
		}
		prevEnd = s.addr + Addr(s.size)
		total += s.size
	}
	for addr, size := range a.live {
		total += size
		for _, s := range a.free {
			if addr < s.addr+Addr(s.size) && s.addr < addr+Addr(size) {
				return fmt.Errorf("live allocation %#x overlaps free span", uint64(addr))
			}
		}
	}
	if total != a.size {
		return fmt.Errorf("accounted %d bytes, arena has %d", total, a.size)
	}
	return nil
}
