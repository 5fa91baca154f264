package mem

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestSplit: every index of [0, n) lands in exactly one call, piece p is
// [p*piece, min((p+1)*piece, n)) whatever the core count, and a single
// piece runs on the caller without a helper goroutine.
func TestSplit(t *testing.T) {
	const piece = 1000
	for _, procs := range []int{1, runtime.GOMAXPROCS(0), 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, n := range []int{0, 1, piece - 1, piece, piece + 1, 5*piece + 3} {
				seen := make([]atomic.Int32, n)
				var calls atomic.Int32
				before := runtime.NumGoroutine()
				got := Split(n, piece, func(p, lo, hi int) {
					calls.Add(1)
					if lo != p*piece || hi != min(lo+piece, n) || lo >= hi {
						t.Errorf("n=%d: piece %d is [%d, %d)", n, p, lo, hi)
					}
					if n <= piece && runtime.NumGoroutine() != before {
						t.Errorf("n=%d: one piece started a goroutine", n)
					}
					for i := lo; i < hi; i++ {
						seen[i].Add(1)
					}
				})
				if want := Pieces(n, piece); got != want || int(calls.Load()) != want {
					t.Errorf("n=%d: Split returned %d after %d calls, want %d", n, got, calls.Load(), want)
				}
				for i := range seen {
					if c := seen[i].Load(); c != 1 {
						t.Fatalf("n=%d: index %d covered %d times", n, i, c)
					}
				}
			}
		})
	}
}
