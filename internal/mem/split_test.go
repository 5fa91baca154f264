package mem

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// splitHelpers counts the live goroutines that Split started, the helpers
// of this and of earlier calls alike.
func splitHelpers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("created by repro/internal/mem.Split"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settleSplitHelpers waits for the helpers of earlier Split calls to
// exit: Split returns once every piece is done, and a helper that found
// no piece left may still be on its way out.
func settleSplitHelpers(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); splitHelpers() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("helpers of earlier Split calls still run after 5 s")
		}
	}
}

// TestSplit: every index of [0, n) lands in exactly one call, piece p is
// [p*piece, min((p+1)*piece, n)) whatever the core count, and a single
// piece runs on the caller without a helper goroutine: no goroutine Split
// started is alive while it runs, once earlier calls' helpers have gone.
func TestSplit(t *testing.T) {
	const piece = 1000
	for _, procs := range []int{1, runtime.GOMAXPROCS(0), 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, n := range []int{0, 1, piece - 1, piece, piece + 1, 5*piece + 3} {
				seen := make([]atomic.Int32, n)
				var calls atomic.Int32
				if n <= piece {
					settleSplitHelpers(t)
				}
				got := Split(n, piece, func(p, lo, hi int) {
					calls.Add(1)
					if lo != p*piece || hi != min(lo+piece, n) || lo >= hi {
						t.Errorf("n=%d: piece %d is [%d, %d)", n, p, lo, hi)
					}
					if n <= piece && splitHelpers() != 0 {
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
