package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// copySizes straddle the split threshold and end on a piece that is not a
// whole chunk.
var copySizes = []int{0, 1, splitMin - 1, splitMin, splitMin + 1, 7<<20 + 3}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// testReadWrite writes random bytes at an unaligned address, reads them
// back into an unaligned buffer and checks both against the plain copy.
func testReadWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const base, off = Addr(0x1000), 5
	s := NewSpace("dev", base, 8<<20)
	for _, n := range copySizes {
		src := randBytes(rng, n+3)[3:]
		s.Write(base+off, src)
		if !bytes.Equal(s.Bytes(base+off, int64(n)), src) {
			t.Fatalf("Write of %d bytes at offset %d differs from copy", n, off)
		}
		dst := make([]byte, n+7)[7:]
		s.Read(base+off, dst)
		if !bytes.Equal(dst, src) {
			t.Fatalf("Read of %d bytes at offset %d differs from copy", n, off)
		}
	}
}

func TestSpaceCopySizes(t *testing.T) {
	testReadWrite(t)
}

// TestSpaceCopySerial: with one P the split path runs every piece on the
// caller, with no helper to wait for.
func TestSpaceCopySerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	testReadWrite(t)
}

// TestSpaceCopyOverlap: a Write whose source aliases the space itself (as
// a core.Manager.HostBytes slice can) is memmove for every overlap
// direction and distance, above and below the split threshold.
func TestSpaceCopyOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{64, splitMin + 1, 5 << 20} {
		for _, shift := range []int{1, 4096, splitChunk + 3, n - 1} {
			size := n + shift + 5
			init := randBytes(rng, size)
			s := NewSpace("dev", 0, int64(size))
			for _, fwd := range []bool{true, false} {
				dst, src := 0, shift
				if fwd {
					dst, src = shift, 0
				}
				want := bytes.Clone(init)
				copy(want[dst:dst+n], want[src:src+n])
				copy(s.Bytes(0, int64(size)), init)
				s.Write(Addr(dst), s.Bytes(Addr(src), int64(n)))
				if !bytes.Equal(s.Bytes(0, int64(size)), want) {
					t.Fatalf("Write(%d, Bytes(%d, %d)) differs from copy", dst, src, n)
				}
			}
		}
	}
}

// TestSpaceMemset checks fill against the byte-at-a-time loop it replaced.
func TestSpaceMemset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const off = 3
	for _, n := range append([]int{2, 3, 4095, 4096, 4097}, copySizes...) {
		size := int64(n + 2*off)
		init := randBytes(rng, int(size))
		s := NewSpace("dev", 0, size)
		for _, b := range []byte{0, 1, 0x5a, 0xff} {
			want := bytes.Clone(init)
			for i := off; i < off+n; i++ {
				want[i] = b
			}
			copy(s.Bytes(0, size), init)
			s.Memset(off, b, int64(n))
			if !bytes.Equal(s.Bytes(0, size), want) {
				t.Fatalf("Memset(%d bytes, %#x) differs from the loop", n, b)
			}
		}
	}
}

// TestSpaceCopyAllocs: copies below the split threshold, the fault path's
// among them, allocate nothing.
func TestSpaceCopyAllocs(t *testing.T) {
	s := NewSpace("dev", 0, 1<<20)
	for _, n := range []int{4 << 10, 256 << 10} {
		buf := make([]byte, n)
		if a := testing.AllocsPerRun(100, func() { s.Write(0, buf); s.Read(0, buf) }); a != 0 {
			t.Fatalf("%d-byte Write+Read allocates %v times", n, a)
		}
	}
}

// BenchmarkSpaceCopy is the wall time of one Write per size, either side
// of the split threshold.
func BenchmarkSpaceCopy(b *testing.B) {
	for _, n := range []int{4 << 10, 256 << 10, 1 << 20, splitMin, 4 << 20, 32 << 20} {
		b.Run(fmt.Sprintf("%dKiB", n>>10), func(b *testing.B) {
			s := NewSpace("dev", 0, int64(n))
			buf := make([]byte, n)
			b.SetBytes(int64(n))
			for range b.N {
				s.Write(0, buf)
			}
		})
	}
}
