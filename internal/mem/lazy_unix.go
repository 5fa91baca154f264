//go:build unix && !race

package mem

import "syscall"

// lazyBytes maps size zero bytes whose pages the operating system provides
// on first touch, and returns them with the call that unmaps them.
func lazyBytes(size int64) ([]byte, func([]byte) error, error) {
	if size == 0 {
		return nil, nil, nil // mmap refuses an empty mapping
	}
	b, err := syscall.Mmap(-1, 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	return b, syscall.Munmap, err
}
