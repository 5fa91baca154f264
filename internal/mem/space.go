// Package mem provides the physical and virtual memory substrates of the
// simulated heterogeneous machine: byte-addressable memory spaces backed by
// real bytes (so kernels genuinely compute), a first-fit allocator
// used by the simulated accelerator, and a host virtual-address-space
// manager that reproduces the mmap-at-fixed-address trick GMAC uses to
// build its shared address space (Section 4.2 of the paper).
//
// A Space's backing follows its role. The accelerator's on-board memory
// (NewLazySpace) is a gigabyte of which a run touches a few per cent, so
// it is demand-paged: an anonymous private OS mapping whose pages cost
// nothing until they are first touched, as on the paper's testbed, and
// which Close (or, for callers that never close, a finalizer) hands back.
// Its pages are 4 KiB, except in the 2 MiB-aligned interior of each
// device allocation, which the device advises for transparent huge pages
// (Space.AdviseHuge): a kernel sweeping an allocation of 2 MiB or more
// then takes one TLB entry per 2 MiB, as under a device MMU's large
// pages, instead of one per 4 KiB page.
// Host mappings (through VASpace.MapFixed/MapAnywhere) are small,
// short-lived and made by the thousand, where a system call and a
// first-touch fault per page cost more than zeroing does. They are Go heap
// slices, and VASpace.Unmap keeps a bounded pool of them by size for the
// next mapping of that size. A mapping built on a pooled backing still
// reads as zeros, like a fresh anonymous mmap: each 4 KiB page of it is
// stale until first touched, Read returns zeros for a stale page, and
// every other accessor clears the page before it exposes it. So a
// recycled Space writes its page bitmap on access, reads included, and,
// unlike a fresh one, must not be accessed concurrently: its owner
// serialises every access (internal/core holds the object's lock).
// Platforms without anonymous mappings and -race builds (the race detector
// does not instrument addresses outside the Go heap) back device memory
// with make as well; lazy_heap.go is that one fallback.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"

	"repro/internal/bitmap"
)

// Addr is an address in the simulated machine. Device and host addresses
// share this type; which space an address belongs to is a property of the
// component holding it, exactly as on real hardware.
type Addr uint64

// Translator maps a virtual address range onto the physical range backing
// it, returning false when the range is not mapped. Ranges passed to a
// Space access must translate contiguously (each allocation is physically
// contiguous, as with large-page device MMUs).
type Translator func(addr Addr, n int64) (Addr, bool)

// Space is a contiguous byte-addressable memory region with a base address.
// Both the accelerator's on-board memory and individual host mappings are
// Spaces. An optional Translator models device-side virtual memory: when
// installed, accesses are translated before the bounds check, and
// untranslated addresses fall through as physical (identity) accesses.
type Space struct {
	name  string
	base  Addr
	data  []byte
	xlate Translator
	// release returns data to the operating system; nil when the garbage
	// collector owns it.
	release func([]byte) error
	// stale has a bit per stalePage of a recycled backing (newRecycledSpace)
	// that still holds a freed mapping's bytes, and nstale counts the bits
	// set. The bitmap is dropped when the last page goes live, so a fresh
	// space and a fully touched one pay a single nstale == 0 test per access.
	stale  []uint64
	nstale int64
}

// stalePage is the granule of a recycled space's stale bitmap, the smallest
// host page size.
const (
	stalePageShift = 12
	stalePage      = 1 << stalePageShift
)

// NewSpace allocates a zeroed memory space of the given size at base on
// the Go heap.
func NewSpace(name string, base Addr, size int64) *Space {
	if size < 0 {
		panic(fmt.Sprintf("mem: negative space size %d", size))
	}
	return &Space{name: name, base: base, data: make([]byte, size)}
}

// newRecycledSpace returns a space of len(data) bytes at base over data, a
// backing a freed mapping left behind, that reads as zeros: every page
// starts stale.
func newRecycledSpace(name string, base Addr, data []byte) *Space {
	pages := (uint64(len(data)) + stalePage - 1) >> stalePageShift
	stale := make([]uint64, (pages+63)>>6)
	bitmap.Set(stale, 0, pages)
	return &Space{name: name, base: base, data: data, stale: stale, nstale: int64(pages)}
}

// NewLazySpace returns a zeroed memory space of the given size at base
// that pays only for the pages it touches, demand-paged in 4 KiB pages,
// or in huge pages inside the ranges its owner advises (AdviseHuge; see
// the package comment). The owner should Close it; a space dropped
// unclosed is closed by a finalizer, which a slice obtained from Bytes
// does not hold off.
func NewLazySpace(name string, base Addr, size int64) *Space {
	if size < 0 {
		panic(fmt.Sprintf("mem: negative space size %d", size))
	}
	data, release, err := lazyBytes(size)
	if err != nil {
		// As fatal as make running out of memory, which this replaces.
		panic(fmt.Sprintf("mem: cannot back space %s with %d bytes: %v", name, size, err))
	}
	s := &Space{name: name, base: base, data: data, release: release}
	if release != nil {
		runtime.SetFinalizer(s, (*Space).Close)
	}
	return s
}

// Close gives the space's memory back. Every later access of one byte or
// more is out of range, a machine check naming the space. Close is
// idempotent, and must not run concurrently with an access.
func (s *Space) Close() {
	data, release := s.data, s.release
	s.data, s.release = nil, nil
	s.stale, s.nstale = nil, 0
	if release == nil {
		return
	}
	runtime.SetFinalizer(s, nil)
	if err := release(data); err != nil {
		panic(fmt.Sprintf("mem: releasing space %s: %v", s.name, err)) // the mapping is ours, so only a bug gets here
	}
}

// AdviseHuge asks for huge pages behind [addr, addr+n), a physical range
// of a space from NewLazySpace: only its 2 MiB-aligned interior is
// advised, so an allocation under 2 MiB and the edges of a larger one
// stay on 4 KiB pages and cost no memory they do not touch. It does
// nothing on a heap-backed or closed space, for a range outside the
// space, or where the operating system has no transparent huge pages.
func (s *Space) AdviseHuge(addr Addr, n int64) {
	if s.release != nil && s.Contains(addr, n) {
		off := int64(addr - s.base)
		adviseHuge(s.data[off : off+n])
	}
}

// Name returns the diagnostic name of the space.
func (s *Space) Name() string { return s.name }

// Base returns the first address of the space.
func (s *Space) Base() Addr { return s.base }

// Size returns the space's extent in bytes.
func (s *Space) Size() int64 { return int64(len(s.data)) }

// Contains reports whether [addr, addr+n) lies inside the space.
func (s *Space) Contains(addr Addr, n int64) bool {
	if n < 0 {
		return false
	}
	off := int64(addr) - int64(s.base)
	return off >= 0 && n <= s.Size()-off
}

// SetTranslator installs (or clears, with nil) the virtual-memory
// translation applied to every access.
func (s *Space) SetTranslator(t Translator) { s.xlate = t }

//adsm:noalloc
func (s *Space) offset(addr Addr, n int64) int64 {
	if s.xlate != nil {
		if phys, ok := s.xlate(addr, n); ok {
			addr = phys
		}
	}
	if !s.Contains(addr, n) {
		panicOutOfRange(s, addr, n)
	}
	return int64(addr) - int64(s.base)
}

// panicOutOfRange formats the machine-check panic off the hot path.
//
//adsm:cold
func panicOutOfRange(s *Space, addr Addr, n int64) {
	panic(fmt.Sprintf("mem: access [%#x,+%d) outside space %s [%#x,+%d)",
		uint64(addr), n, s.name, uint64(s.base), s.Size()))
}

// Bytes returns the live backing slice for [addr, addr+n), clearing the
// stale pages of a recycled space first. Writes through the returned slice
// mutate the space. It panics on out-of-range access, mirroring a machine
// check.
func (s *Space) Bytes(addr Addr, n int64) []byte {
	off := s.offset(addr, n)
	if s.nstale != 0 {
		s.freshen(off, n)
	}
	return s.data[off : off+n : off+n]
}

// Read copies len(dst) bytes starting at addr into dst; a stale page reads
// as zeros and stays stale. Reads of a few MiB and more run on every core
// (copy.go).
func (s *Space) Read(addr Addr, dst []byte) {
	n := int64(len(dst))
	off := s.offset(addr, n)
	if s.nstale != 0 {
		s.readStale(off, dst)
		return
	}
	copyBytes(dst, s.data[off:off+n])
}

// Write copies src into the space starting at addr. Like Read, large
// writes run on every core.
func (s *Space) Write(addr Addr, src []byte) {
	copyBytes(s.Bytes(addr, int64(len(src))), src)
}

// freshen clears every stale page overlapping [off, off+n), one clear per
// run of stale pages, and makes them live.
func (s *Space) freshen(off, n int64) {
	if n <= 0 {
		return
	}
	lo, end := uint64(off)>>stalePageShift, uint64(off+n-1)>>stalePageShift+1
	for p := lo; p < end; {
		q, stale := bitmap.Run(s.stale, p, end)
		if stale {
			clear(s.data[p<<stalePageShift : min(q<<stalePageShift, uint64(len(s.data)))])
		}
		p = q
	}
	if s.nstale -= int64(bitmap.Clear(s.stale, lo, end)); s.nstale == 0 {
		s.stale = nil
	}
}

// readStale is Read over a recycled space: runs of live pages are copied,
// runs of stale pages read as zeros without being cleared.
func (s *Space) readStale(off int64, dst []byte) {
	end := off + int64(len(dst))
	pages := uint64(end-1)>>stalePageShift + 1
	for off < end {
		q, stale := bitmap.Run(s.stale, uint64(off)>>stalePageShift, pages)
		hi := min(int64(q)<<stalePageShift, end)
		if stale {
			fillBytes(dst[:hi-off], 0)
		} else {
			copyBytes(dst[:hi-off], s.data[off:hi])
		}
		dst = dst[hi-off:]
		off = hi
	}
}

// Float32 reads a little-endian float32 at addr.
func (s *Space) Float32(addr Addr) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(s.Bytes(addr, 4)))
}

// SetFloat32 writes a little-endian float32 at addr.
func (s *Space) SetFloat32(addr Addr, v float32) {
	binary.LittleEndian.PutUint32(s.Bytes(addr, 4), math.Float32bits(v))
}

// Uint32 reads a little-endian uint32 at addr.
func (s *Space) Uint32(addr Addr) uint32 {
	return binary.LittleEndian.Uint32(s.Bytes(addr, 4))
}

// SetUint32 writes a little-endian uint32 at addr.
func (s *Space) SetUint32(addr Addr, v uint32) {
	binary.LittleEndian.PutUint32(s.Bytes(addr, 4), v)
}

// Uint64 reads a little-endian uint64 at addr.
func (s *Space) Uint64(addr Addr) uint64 {
	return binary.LittleEndian.Uint64(s.Bytes(addr, 8))
}

// Memset fills [addr, addr+n) with b.
func (s *Space) Memset(addr Addr, b byte, n int64) {
	fillBytes(s.Bytes(addr, n), b)
}
