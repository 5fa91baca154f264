package mem

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pieces is the number of pieces Split cuts [0, n) into.
func Pieces(n, piece int) int {
	return (n + piece - 1) / piece
}

// Split runs do(p, lo, hi) for every piece p of [0, n), where piece p is
// [p*piece, min((p+1)*piece, n)), on up to GOMAXPROCS cores, and returns
// the number of pieces. The cut depends on n and piece alone, never on the
// number of cores, so a caller that keeps one partial result per piece and
// combines them in piece order gets the same answer on every host.
//
// One piece, or GOMAXPROCS 1, runs on the caller and starts no goroutine.
// Otherwise every core pulls pieces from a shared cursor, the caller among
// them, and the caller waits only for pieces a helper has already claimed,
// never for a helper to be scheduled: a helper that starts after the
// cursor ran out claims nothing. So on a host with no idle core the cost
// is the serial loop plus starting the helpers.
func Split(n, piece int, do func(p, lo, hi int)) int {
	pieces := Pieces(n, piece)
	workers := min(runtime.GOMAXPROCS(0), pieces)
	if workers <= 1 {
		for p := range pieces {
			lo := p * piece
			do(p, lo, min(lo+piece, n))
		}
		return pieces
	}
	var next, done atomic.Int64
	var last sync.WaitGroup // released by whoever finishes the last piece
	last.Add(1)
	work := func() {
		for {
			p := int(next.Add(1) - 1)
			if p >= pieces {
				return
			}
			lo := p * piece
			do(p, lo, min(lo+piece, n))
			if done.Add(1) == int64(pieces) {
				last.Done()
			}
		}
	}
	for range workers - 1 {
		go work()
	}
	work()
	last.Wait()
	return pieces
}
