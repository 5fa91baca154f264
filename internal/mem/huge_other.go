//go:build !linux || race

package mem

// adviseHuge does nothing where the kernel has no transparent huge pages
// to ask for, and under -race, whose device memory is a heap slice.
func adviseHuge([]byte) {}
