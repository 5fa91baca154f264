//go:build linux && !race

package mem

import (
	"syscall"
	"unsafe"
)

// hugePage is the size of a transparent huge page over 4 KiB base pages.
const hugePage = 2 << 20

// adviseHuge asks the kernel to back the huge-page-aligned interior of b, a
// part of an anonymous mapping, with transparent huge pages. The edges stay
// on small pages, so advising a range never makes the kernel fault in
// memory outside it. The advice is a hint: where the kernel refuses it
// (THP off, or not built in) the pages stay small, and so the error is
// ignored.
func adviseHuge(b []byte) {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := (p + hugePage - 1) &^ (hugePage - 1)
	hi := (p + uintptr(len(b))) &^ (hugePage - 1)
	if lo < hi {
		_ = syscall.Madvise(b[lo-p:hi-p], syscall.MADV_HUGEPAGE)
	}
}
