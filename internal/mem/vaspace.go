package mem

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// ErrAddrInUse is returned by MapFixed when the requested virtual range
// overlaps an existing mapping — the failure mode Section 4.2 of the paper
// discusses for multi-accelerator systems, which forces the adsmSafeAlloc
// fallback.
var ErrAddrInUse = errors.New("mem: requested virtual address range in use")

// Mapping is one live virtual memory mapping of the host process. Unmap
// closes its Space: an access through a Mapping kept past Unmap is a
// machine check, never a read of whatever later mapping reuses the bytes.
type Mapping struct {
	Addr  Addr
	Size  int64
	Space *Space // backing system memory
}

// VASpace models the host process's virtual address space: the part of the
// OS abstraction layer that GMAC drives through mmap. It supports
// mmap-at-a-fixed-address (used to mirror the accelerator's allocation at
// the same numeric address) and mmap-anywhere (used by adsmSafeAlloc).
// Like the kernel's mmap path, it is safe for concurrent use.
type VASpace struct {
	lo, hi   Addr       // allocatable window for MapAnywhere
	mu       sync.Mutex // guards every field below
	mappings []*Mapping
	nextHint Addr
	// reserved ranges simulate program sections (ELF text/data, stacks,
	// shared libraries) that fixed mappings may collide with.
	reserved []span
	// pool holds the backings of unmapped mappings by exact size, for the
	// next mapping of that size; pooled is their total and live the bytes
	// currently mapped. pooled stays within live/poolShare.
	pool         map[int64][][]byte
	pooled, live int64
}

// poolShare bounds the pool of freed backings to 1/poolShare of the bytes
// mapped: enough that an Unmap followed by a Map of the same size, the
// shape of alloc/free churn, recycles, while a space whose mappings are all
// gone keeps no freed memory at all.
const poolShare = 8

// NewVASpace returns a virtual address space whose anywhere-allocations are
// placed in [lo, hi).
func NewVASpace(lo, hi Addr) *VASpace {
	if hi <= lo {
		panic(fmt.Sprintf("mem: empty VA window [%#x,%#x)", uint64(lo), uint64(hi)))
	}
	return &VASpace{lo: lo, hi: hi, nextHint: lo}
}

// Reserve marks [addr, addr+size) as occupied by a non-GMAC mapping.
// Experiments use it to inject the address-conflict scenario of §4.2.
func (v *VASpace) Reserve(addr Addr, size int64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.overlaps(addr, size) {
		return fmt.Errorf("%w: [%#x,+%d)", ErrAddrInUse, uint64(addr), size)
	}
	v.reserved = append(v.reserved, span{addr: addr, size: size})
	return nil
}

func (v *VASpace) overlaps(addr Addr, size int64) bool {
	end := addr + Addr(size)
	// The mappings are sorted and disjoint, so only the first one that
	// ends above addr can intersect the range.
	i := sort.Search(len(v.mappings), func(i int) bool {
		m := v.mappings[i]
		return m.Addr+Addr(m.Size) > addr
	})
	if i < len(v.mappings) && v.mappings[i].Addr < end {
		return true
	}
	for _, r := range v.reserved {
		if addr < r.addr+Addr(r.size) && r.addr < end {
			return true
		}
	}
	return false
}

// MapFixed creates an anonymous mapping at exactly addr, like
// mmap(addr, size, ..., MAP_FIXED|MAP_ANONYMOUS) constrained to fail on
// overlap rather than clobber. Returns the new mapping.
func (v *VASpace) MapFixed(addr Addr, size int64) (*Mapping, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mem: invalid mapping size %d", size)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.overlaps(addr, size) {
		return nil, fmt.Errorf("%w: [%#x,+%d)", ErrAddrInUse, uint64(addr), size)
	}
	m := &Mapping{Addr: addr, Size: size, Space: v.backing(addr, size)}
	v.insert(m)
	return m, nil
}

// MapAnywhere creates an anonymous mapping of the given size at an address
// of the kernel's choosing inside the VA window.
func (v *VASpace) MapAnywhere(size int64) (*Mapping, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mem: invalid mapping size %d", size)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	// First-fit scan from the hint, wrapping once.
	for pass := 0; pass < 2; pass++ {
		addr := v.nextHint
		if pass == 1 {
			addr = v.lo
		}
		for addr+Addr(size) <= v.hi {
			if !v.overlaps(addr, size) {
				m := &Mapping{Addr: addr, Size: size, Space: v.backing(addr, size)}
				v.insert(m)
				v.nextHint = addr + Addr(size)
				return m, nil
			}
			addr = v.nextObstacleEnd(addr, size)
		}
	}
	return nil, fmt.Errorf("%w: no hole of %d bytes in VA window", ErrOutOfMemory, size)
}

// nextObstacleEnd returns the end of the lowest mapping/reservation that
// overlaps [addr, addr+size); callers use it to skip past obstacles.
func (v *VASpace) nextObstacleEnd(addr Addr, size int64) Addr {
	end := addr + Addr(size)
	best := v.hi
	found := false
	consider := func(a Addr, s int64) {
		if addr < a+Addr(s) && a < end {
			if !found || a+Addr(s) < best {
				best = a + Addr(s)
				found = true
			}
		}
	}
	for _, m := range v.mappings {
		consider(m.Addr, m.Size)
	}
	for _, r := range v.reserved {
		consider(r.addr, r.size)
	}
	if !found {
		// No obstacle: should not happen (caller checked overlap), but
		// advance past the candidate to guarantee progress.
		return end
	}
	return best
}

// backing returns the zero-reading Space of a new mapping at addr: a pooled
// backing of the same size if there is one, else a fresh one. The caller
// holds v.mu.
func (v *VASpace) backing(addr Addr, size int64) *Space {
	v.live += size
	free := v.pool[size]
	if len(free) == 0 {
		return NewSpace("anon", addr, size)
	}
	data := free[len(free)-1]
	if len(free) == 1 {
		delete(v.pool, size)
	} else {
		free[len(free)-1] = nil
		v.pool[size] = free[:len(free)-1]
	}
	v.pooled -= size
	return newRecycledSpace("anon", addr, data)
}

// recycle closes the Space of a mapping being unmapped and pools its
// backing if the bound allows, then trims the pool back under the bound
// the unmap lowered. The caller holds v.mu.
func (v *VASpace) recycle(m *Mapping) {
	data := m.Space.data
	m.Space.Close()
	v.live -= m.Size
	if size := int64(len(data)); size > 0 && v.pooled+size <= v.live/poolShare {
		if v.pool == nil {
			v.pool = make(map[int64][][]byte)
		}
		v.pool[size] = append(v.pool[size], data)
		v.pooled += size
	}
	for size, free := range v.pool {
		if v.pooled <= v.live/poolShare {
			break
		}
		v.pooled -= size * int64(len(free))
		delete(v.pool, size)
	}
}

func (v *VASpace) insert(m *Mapping) {
	i := sort.Search(len(v.mappings), func(i int) bool { return v.mappings[i].Addr > m.Addr })
	v.mappings = slices.Insert(v.mappings, i, m)
}

// Unmap removes the mapping that begins at addr and closes its Space.
func (v *VASpace) Unmap(addr Addr) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	i := sort.Search(len(v.mappings), func(i int) bool { return v.mappings[i].Addr >= addr })
	if i == len(v.mappings) || v.mappings[i].Addr != addr {
		return fmt.Errorf("mem: unmap of unmapped address %#x", uint64(addr))
	}
	v.recycle(v.mappings[i])
	v.mappings = slices.Delete(v.mappings, i, i+1) // clears the vacated slot, which would pin the mapping
	return nil
}

// Lookup returns the mapping containing addr, or nil.
func (v *VASpace) Lookup(addr Addr) *Mapping {
	v.mu.Lock()
	defer v.mu.Unlock()
	i := sort.Search(len(v.mappings), func(i int) bool { return v.mappings[i].Addr > addr })
	if i == 0 {
		return nil
	}
	m := v.mappings[i-1]
	if addr < m.Addr+Addr(m.Size) {
		return m
	}
	return nil
}

// Mappings returns the number of live mappings.
func (v *VASpace) Mappings() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.mappings)
}
