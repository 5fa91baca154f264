//go:build unix && !race

package mem

import (
	"runtime"
	"testing"

	"repro/internal/testutil"
)

// The two tests below make 64 one-gigabyte spaces one after another and
// touch the first 1 MiB and the last 15 MiB of each: 1 GiB of touched pages
// in all, so the 512 MiB bound holds only if untouched pages cost nothing
// and each space's touched ones really go back.
const (
	lazySpaces = 64
	lazySize   = 1 << 30
	lazyBound  = 512
)

func touchLazySpace(s *Space) {
	s.Memset(s.Base(), 1, 1<<20)
	s.Memset(s.Base()+lazySize-15<<20, 1, 15<<20)
}

func TestLazySpaceClosedStaysSmall(t *testing.T) {
	for i := 0; i < lazySpaces; i++ {
		s := NewLazySpace("gddr", 0x2_0000_0000, lazySize)
		touchLazySpace(s)
		s.Close()
	}
	if rss := testutil.MaxRSSMiB(t); rss >= lazyBound {
		t.Fatalf("peak RSS %d MiB after %d closed 1 GiB spaces, want < %d", rss, lazySpaces, lazyBound)
	}
}

// TestLazySpaceDroppedIsFinalized is the safety net for owners that never
// call Close (the benchmark harness is one).
func TestLazySpaceDroppedIsFinalized(t *testing.T) {
	for i := 0; i < lazySpaces; i++ {
		s := NewLazySpace("gddr", 0x2_0000_0000, lazySize)
		touchLazySpace(s)
		runtime.KeepAlive(s) // the bytes being touched do not keep s from its finalizer
		runtime.GC()
	}
	if rss := testutil.MaxRSSMiB(t); rss >= lazyBound {
		t.Fatalf("peak RSS %d MiB after %d dropped 1 GiB spaces, want < %d", rss, lazySpaces, lazyBound)
	}
}
