package mem

import "unsafe"

// Every byte of simulated memory that moves — a DMA in either direction, a
// bulk access, a memset — goes through copyBytes or fillBytes. Below
// splitMin they are copy and fill on the caller: one length compare more,
// no allocation, so the 4 KiB transfers of the fault path cost what they
// always did. From splitMin up (batch-update's MiB-sized call-boundary
// DMAs) the work is cut into splitChunk pieces that every core pulls from
// a shared cursor, the caller among them.
const (
	// splitMin is the smallest length worth a second core. Up to about
	// 1 MiB a copy runs from the caches at ~30 GB/s and splitting it is
	// slower; from 2 MiB it runs at ~14 GB/s on one core and two cores take
	// 60-80 % of the time (docs/performance.md, "Large copies on the idle
	// core").
	splitMin = 2 << 20
	// splitChunk is the unit of work a core claims at a time: small enough
	// that a helper which starts late still finds work, large enough that
	// the cursor is touched once per 15 µs of copying.
	splitChunk = 256 << 10
)

// copyBytes is copy(dst, src) for len(dst) == len(src).
//
//adsm:noalloc
func copyBytes(dst, src []byte) {
	if len(src) < splitMin {
		copy(dst, src)
		return
	}
	copyLarge(dst, src)
}

// fillBytes sets every byte of buf to b.
//
//adsm:noalloc
func fillBytes(buf []byte, b byte) {
	if len(buf) < splitMin {
		fill(buf, b)
		return
	}
	fillLarge(buf, b)
}

// fill is fillBytes on one core: clear for zero, else one byte doubled by
// copy until buf is full.
func fill(buf []byte, b byte) {
	if b == 0 {
		clear(buf)
		return
	}
	if len(buf) == 0 {
		return
	}
	buf[0] = b
	for n := 1; n < len(buf); n *= 2 {
		copy(buf[n:], buf[:n])
	}
}

// copyLarge is copyBytes from splitMin up. It starts goroutines and so
// allocates, which is why only copies of at least splitMin reach it.
//
//adsm:cold
func copyLarge(dst, src []byte) {
	// Read and Write take caller buffers, and a caller's buffer may alias
	// the space itself (core.Manager.HostBytes hands out its slices).
	if overlap(dst, src) {
		copy(dst, src) // a memmove; chunks copied in any order are not
		return
	}
	Split(len(src), splitChunk, func(_, lo, hi int) { copy(dst[lo:hi], src[lo:hi]) })
}

// fillLarge is fillBytes from splitMin up; see copyLarge.
//
//adsm:cold
func fillLarge(buf []byte, b byte) {
	Split(len(buf), splitChunk, func(_, lo, hi int) { fill(buf[lo:hi], b) })
}

// overlap reports whether a and b share any byte of memory.
func overlap(a, b []byte) bool {
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}
