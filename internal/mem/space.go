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
// Host mappings (NewSpace, through VASpace.MapFixed/MapAnywhere) are small,
// short-lived and made by the thousand, where a system call and a
// first-touch fault per page cost more than zeroing does; they are Go heap
// slices and the garbage collector owns them. Platforms without such
// mappings and -race builds (the race detector does not instrument
// addresses outside the Go heap) back both kinds with make; lazy_heap.go
// is that one fallback.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
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
}

// NewSpace allocates a zeroed memory space of the given size at base on
// the Go heap.
func NewSpace(name string, base Addr, size int64) *Space {
	if size < 0 {
		panic(fmt.Sprintf("mem: negative space size %d", size))
	}
	return &Space{name: name, base: base, data: make([]byte, size)}
}

// NewLazySpace returns a zeroed memory space of the given size at base
// that pays only for the pages it touches (see the package comment). The
// owner should Close it; a space dropped unclosed is closed by a
// finalizer, which a slice obtained from Bytes does not hold off.
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
	if release == nil {
		return
	}
	runtime.SetFinalizer(s, nil)
	if err := release(data); err != nil {
		panic(fmt.Sprintf("mem: releasing space %s: %v", s.name, err)) // the mapping is ours, so only a bug gets here
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

// Bytes returns the live backing slice for [addr, addr+n). Writes through
// the returned slice mutate the space. It panics on out-of-range access,
// mirroring a machine check.
func (s *Space) Bytes(addr Addr, n int64) []byte {
	off := s.offset(addr, n)
	return s.data[off : off+n : off+n]
}

// Read copies len(dst) bytes starting at addr into dst.
func (s *Space) Read(addr Addr, dst []byte) {
	copy(dst, s.Bytes(addr, int64(len(dst))))
}

// Write copies src into the space starting at addr.
func (s *Space) Write(addr Addr, src []byte) {
	copy(s.Bytes(addr, int64(len(src))), src)
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

// SetUint64 writes a little-endian uint64 at addr.
func (s *Space) SetUint64(addr Addr, v uint64) {
	binary.LittleEndian.PutUint64(s.Bytes(addr, 8), v)
}

// Memset fills [addr, addr+n) with b.
func (s *Space) Memset(addr Addr, b byte, n int64) {
	buf := s.Bytes(addr, n)
	for i := range buf {
		buf[i] = b
	}
}
