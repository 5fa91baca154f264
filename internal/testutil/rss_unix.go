//go:build unix

package testutil

import (
	"runtime"
	"syscall"
	"testing"
)

// MaxRSSMiB returns the test process's peak resident set size so far, for
// footprint assertions. It is a high-water mark: a test using it shares
// its bound with every test that ran earlier in the same binary.
func MaxRSSMiB(t testing.TB) int64 {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		return ru.Maxrss >> 20 // bytes there, KiB everywhere else
	}
	return ru.Maxrss >> 10
}
