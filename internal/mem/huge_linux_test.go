//go:build linux && !race

package mem

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// hugeAdvised returns the ranges of [lo, hi) that the kernel lists as
// advised for huge pages: the mappings of /proc/self/smaps whose VmFlags
// carry "hg", clipped to [lo, hi).
func hugeAdvised(t *testing.T, lo, hi uintptr) [][2]uintptr {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps to read the advice from: %v", err)
	}
	defer f.Close()
	var got [][2]uintptr
	var start, end uintptr
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if flags, ok := strings.CutPrefix(line, "VmFlags:"); ok {
			if start < hi && end > lo && slices.Contains(strings.Fields(flags), "hg") {
				got = append(got, [2]uintptr{max(start, lo), min(end, hi)})
			}
			continue
		}
		var a, b uintptr
		if _, err := fmt.Sscanf(line, "%x-%x ", &a, &b); err == nil {
			start, end = a, b // the header line of the next mapping
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestAdviseHugeAdvisesInterior: AdviseHuge advises exactly the 2 MiB-
// aligned interior of its range, and nothing for a range with no whole
// aligned huge page inside, even one of 2 MiB.
func TestAdviseHugeAdvisesInterior(t *testing.T) {
	if _, err := os.Stat("/sys/kernel/mm/transparent_hugepage/enabled"); err != nil {
		t.Skip("the kernel has no transparent huge pages")
	}
	const size = 64 << 20
	s := NewLazySpace("gddr", 0x1_0000_0000, size)
	defer s.Close()
	p := uintptr(unsafe.Pointer(unsafe.SliceData(s.data)))
	up := func(a uintptr) uintptr { return (a + hugePage - 1) &^ (hugePage - 1) }

	// A 2 MiB range off the huge-page grid has no aligned interior.
	small := up(p) + 1<<20 - p
	s.AdviseHuge(s.base+Addr(small), hugePage)
	if got := hugeAdvised(t, p, p+size); len(got) != 0 {
		t.Fatalf("a 2 MiB range off the grid advised %#x", got)
	}

	// 9 MiB from 256 bytes past the middle of a huge page: the aligned
	// interior is the four whole huge pages after it.
	off := up(p) + 8<<20 + 1<<20 + 256 - p
	s.AdviseHuge(s.base+Addr(off), 9<<20)
	lo := up(p + off)
	want := [][2]uintptr{{lo, lo + 4*hugePage}}
	if got := hugeAdvised(t, p, p+size); !slices.Equal(got, want) {
		t.Fatalf("advised %#x, want the interior %#x", got, want)
	}
}
