package workloads

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// splitKernels names, per benchmark, the kernels whose bodies run in
// pieces on the host's cores.
var splitKernels = map[string][]string{
	"cp":        {"cp.potential"},
	"mri-fhd":   {"mri-fhd.accumulate"},
	"mri-q":     {"mri-q.accumulate"},
	"pns":       {"pns.step"},
	"sad":       {"sad.mb4"},
	"stencil3d": {"stencil.step"},
	"tpacf":     {"tpacf.dd", "tpacf.dr", "tpacf.rr"},
}

// checkSplitChecksums runs each benchmark's CUDA variant, at one P and at
// the default, and requires the checksum to equal want (the serial
// kernels' value) and every split kernel to have run more than one piece.
func checkSplitChecksums(t *testing.T, suite []Benchmark, opt Options, want map[string]float64) {
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var mu sync.Mutex
			pieces := map[string]int{}
			pieceHook = func(kernel string, n int) {
				mu.Lock()
				pieces[kernel] = max(pieces[kernel], n)
				mu.Unlock()
			}
			defer func() { pieceHook = nil }()
			for _, b := range suite {
				r, err := RunCUDA(b, opt)
				if err != nil {
					t.Fatal(err)
				}
				if r.Checksum != want[b.Name()] {
					t.Errorf("%s checksum %v, want %v", b.Name(), r.Checksum, want[b.Name()])
				}
				for _, k := range splitKernels[b.Name()] {
					if pieces[k] < 2 {
						t.Errorf("%s: kernel %s ran %d pieces, want more than one", b.Name(), k, pieces[k])
					}
				}
			}
		})
	}
}

// TestMidScaleChecksumsPinned: configurations just large enough that every
// split kernel runs several pieces (and pns's marking checksums in two, the
// second short), cheap enough for the race detector. The checksums are
// those of the serial kernel bodies.
func TestMidScaleChecksumsPinned(t *testing.T) {
	suite := []Benchmark{
		&CP{Atoms: 32, GX: 16, GY: 48, Planes: 2},
		&MRI{FHD: true, K: 32, X: 600},
		&MRI{K: 32, X: 600},
		&PNS{Places: 288 << 10, Steps: 4, Stride: 16, CheckEvery: 2},
		&SAD{W: 32, H: 96, Range: 1},
		&Stencil3D{N: 20, Iters: 8, OutEvery: 4, SourceElems: 8},
		&TPACF{Points: 80000, Sets: 1, Bins: 64, InitChunk: 4 << 10},
	}
	checkSplitChecksums(t, suite, smallOpts(), map[string]float64{
		"cp":        36916,
		"mri-fhd":   -45.147,
		"mri-q":     1987.173,
		"pns":       5.245289244765605e+15,
		"sad":       9.02707125676055e+14,
		"stencil3d": 10613,
		"tpacf":     3.161413850929098e+15,
	})
}

// TestPNSGuardRunsSerial: pns.step splits only when no transition's target
// is another's source (places a multiple of stride, 13 not). A marking one
// word past a multiple of the stride, or a stride of 13, runs in one piece
// and computes the serial checksum.
func TestPNSGuardRunsSerial(t *testing.T) {
	for _, c := range []struct {
		pns  *PNS
		want float64
	}{
		{&PNS{Places: 288<<10 + 8, Steps: 4, Stride: 16, CheckEvery: 2}, 7.651784037726056e+15},
		{&PNS{Places: 13 << 15, Steps: 4, Stride: 13, CheckEvery: 2}, 6.457934634075375e+15},
	} {
		pieces := 0
		pieceHook = func(kernel string, n int) {
			if kernel == "pns.step" {
				pieces = max(pieces, n)
			}
		}
		r, err := RunCUDA(c.pns, smallOpts())
		pieceHook = nil
		if err != nil {
			t.Fatal(err)
		}
		if pieces != 1 || r.Checksum != c.want {
			t.Errorf("places %d stride %d: %d pieces, checksum %v; want 1 piece, %v",
				c.pns.Places, c.pns.Stride, pieces, r.Checksum, c.want)
		}
	}
}

// checksumBytesSerial is checksumBytes as one byte loop, the oracle for
// the piecewise fold.
func checksumBytesSerial(bs []byte) float64 {
	var s uint64
	for i, b := range bs {
		s = s*31 + uint64(b) + uint64(i%13)
	}
	return float64(s % (1 << 52))
}

// TestChecksumBytesFold: the piecewise fold equals the byte loop at every
// length around the piece size, including several pieces and a short tail.
func TestChecksumBytesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 12, 13, sumPiece - 1, sumPiece, sumPiece + 1, 3*sumPiece + 7} {
		bs := make([]byte, n)
		rng.Read(bs)
		if got, want := checksumBytes(bs), checksumBytesSerial(bs); got != want {
			t.Errorf("%d bytes: checksumBytes %v, byte loop %v", n, got, want)
		}
	}
}
