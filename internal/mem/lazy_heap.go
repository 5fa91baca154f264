//go:build !unix || race

package mem

// lazyBytes is the fallback for platforms without anonymous mappings and
// for -race builds, which must keep the bytes where the race detector
// instruments them: an ordinary zeroed heap slice, nothing to release.
func lazyBytes(size int64) ([]byte, func([]byte) error, error) {
	return make([]byte, size), nil, nil
}
