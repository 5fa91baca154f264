package workloads

import (
	"math"

	"repro/gmac"
	"repro/internal/accel"
	"repro/internal/cudart"
	"repro/internal/mem"
	"repro/machine"
)

// Stencil3D is the Figure 9 application: an iterative 7-point 3D stencil
// (e.g. an acoustic wave propagator) where every time step the CPU
// introduces a small localised source into the volume, and the volume is
// periodically written to disk.
//
// The source introduction is the rolling-update showcase: lazy-update must
// transfer the whole volume back to the CPU before the few-element source
// write, while rolling-update fetches only the touched block. The periodic
// disk write pulls the whole volume and favours large blocks — the
// trade-off Figure 9 sweeps.
type Stencil3D struct {
	// N is the cubic volume edge in elements (the paper sweeps 64..384).
	N int64
	// Iters is the number of time steps.
	Iters int
	// OutEvery writes the volume to disk every this many steps.
	OutEvery int
	// SourceElems is the number of elements the source write touches.
	SourceElems int64
}

// DefaultStencil returns a mid-size configuration (128^3). Each disk
// output is preceded by 24 time steps, each of which introduces a source —
// the access mix Figure 9 sweeps.
func DefaultStencil() *Stencil3D {
	return &Stencil3D{N: 128, Iters: 24, OutEvery: 24, SourceElems: 32}
}

// SmallStencil returns a fast configuration for unit tests.
func SmallStencil() *Stencil3D {
	return &Stencil3D{N: 24, Iters: 3, OutEvery: 2, SourceElems: 8}
}

// SizedStencil returns the Figure 9 configuration for edge n.
func SizedStencil(n int64) *Stencil3D {
	return &Stencil3D{N: n, Iters: 24, OutEvery: 24, SourceElems: 32}
}

// Name implements Benchmark.
func (*Stencil3D) Name() string { return "stencil3d" }

// Description implements Benchmark.
func (*Stencil3D) Description() string {
	return "Iterative 7-point 3D stencil with per-step CPU source introduction and periodic volume output to disk (Figure 9)."
}

// Prepare implements Benchmark.
func (*Stencil3D) Prepare(*machine.Machine) error { return nil }

func (s *Stencil3D) volBytes() int64 { return s.N * s.N * s.N * 4 }

// Register implements Benchmark.
func (s *Stencil3D) Register(dev *accel.Device) {
	n := s.N
	dev.Register(&accel.Kernel{
		Name: "stencil.step",
		// args: inPtr, outPtr
		Run: func(devmem *mem.Space, args []uint64) {
			in := devmem.Bytes(mem.Addr(args[0]), n*n*n*4)
			out := devmem.Bytes(mem.Addr(args[1]), n*n*n*4)
			// Each output word reads only in and is written once, so the
			// z-planes run in pieces on the host's cores.
			splitKernel("stencil.step", n, 8, func(_ int, lo, hi int64) { stencilPlanes(out, in, n, lo, hi) })
		},
		Cost: func([]uint64) (float64, int64) {
			vol := float64(n * n * n)
			return 8 * vol, 8 * n * n * n
		},
	})
}

// stencilPlanes runs one 7-point step over the z-planes [lo, hi) of an
// n³ float32 volume: out = 0.4·in + 0.1·(the six neighbours), with the
// faces copied through.
func stencilPlanes(out, in []byte, n, lo, hi int64) {
	idx := func(x, y, z int64) int64 { return ((z*n+y)*n + x) * 4 }
	for z := lo; z < hi; z++ {
		for y := int64(0); y < n; y++ {
			for x := int64(0); x < n; x++ {
				i := idx(x, y, z)
				if x == 0 || y == 0 || z == 0 || x == n-1 || y == n-1 || z == n-1 {
					putF32(out[i:], getF32(in[i:]))
					continue
				}
				v := 0.4*getF32(in[i:]) + 0.1*(getF32(in[idx(x-1, y, z):])+
					getF32(in[idx(x+1, y, z):])+
					getF32(in[idx(x, y-1, z):])+
					getF32(in[idx(x, y+1, z):])+
					getF32(in[idx(x, y, z-1):])+
					getF32(in[idx(x, y, z+1):]))
				putF32(out[i:], v)
			}
		}
	}
}

// sourceBytes builds the per-step source values.
func (s *Stencil3D) sourceBytes(step int) []byte {
	buf := make([]byte, s.SourceElems*4)
	for i := int64(0); i < s.SourceElems; i++ {
		putF32(buf[i*4:], float32(step+1)*10+float32(i))
	}
	return buf
}

func (s *Stencil3D) sourceOffset() int64 {
	center := s.N / 2
	return ((center*s.N+center)*s.N + center) * 4
}

// RunCUDA implements Benchmark: the hand-tuned baseline transfers only the
// source region in and the volume out at output steps.
func (s *Stencil3D) RunCUDA(m *machine.Machine, rt *cudart.Runtime) (float64, error) {
	vb := s.volBytes()
	host := rt.MallocHost(vb)
	devIn, err := rt.Malloc(vb)
	if err != nil {
		return 0, err
	}
	devOut, err := rt.Malloc(vb)
	if err != nil {
		return 0, err
	}
	m.CPUTouch(vb) // zero-initialise the host volume
	rt.MemcpyH2D(devIn, host)
	rt.Memset(devOut, 0, vb)

	outFile := m.FS.Create("stencil.out")
	srcOff := s.sourceOffset()
	for step := 0; step < s.Iters; step++ {
		src := s.sourceBytes(step)
		copy(host[srcOff:], src)
		m.CPUTouch(int64(len(src)))
		// Hand-tuned: only the source region crosses the bus.
		rt.MemcpyH2D(devIn+mem.Addr(srcOff), src)
		if err := rt.Launch("stencil.step", uint64(devIn), uint64(devOut)); err != nil {
			return 0, err
		}
		rt.Synchronize()
		devIn, devOut = devOut, devIn
		if (step+1)%s.OutEvery == 0 {
			rt.MemcpyD2H(host, devIn)
			if _, err := outFile.Write(host); err != nil {
				return 0, err
			}
		}
	}
	rt.MemcpyD2H(host, devIn)
	sum := s.fold(host)
	if err := rt.Free(devIn); err != nil {
		return 0, err
	}
	if err := rt.Free(devOut); err != nil {
		return 0, err
	}
	return sum, nil
}

// RunGMAC implements Benchmark: identical logic, no transfers anywhere.
func (s *Stencil3D) RunGMAC(ctx gmac.Session) (float64, error) {
	m := ctx.Machine()
	vb := s.volBytes()
	volIn, err := ctx.Alloc(vb)
	if err != nil {
		return 0, err
	}
	volOut, err := ctx.Alloc(vb)
	if err != nil {
		return 0, err
	}
	if err := ctx.Memset(volIn, 0, vb); err != nil {
		return 0, err
	}
	if err := ctx.Memset(volOut, 0, vb); err != nil {
		return 0, err
	}
	m.CPUTouch(vb)

	outFile := m.FS.Create("stencil.out")
	srcOff := s.sourceOffset()
	for step := 0; step < s.Iters; step++ {
		src := s.sourceBytes(step)
		// Plain write into the shared volume: the protocol fetches only
		// what its granularity requires.
		if err := ctx.HostWrite(volIn+gmac.Ptr(srcOff), src); err != nil {
			return 0, err
		}
		m.CPUTouch(int64(len(src)))
		if err := ctx.Call("stencil.step", []uint64{uint64(volIn), uint64(volOut)}); err != nil {
			return 0, err
		}
		volIn, volOut = volOut, volIn
		if (step+1)%s.OutEvery == 0 {
			if _, err := ctx.WriteFile(outFile, volIn, vb); err != nil {
				return 0, err
			}
		}
	}
	final := make([]byte, vb)
	if err := ctx.HostRead(volIn, final); err != nil {
		return 0, err
	}
	sum := s.fold(final)
	if err := ctx.Free(volIn); err != nil {
		return 0, err
	}
	if err := ctx.Free(volOut); err != nil {
		return 0, err
	}
	return sum, nil
}

func (s *Stencil3D) fold(vol []byte) float64 {
	var sum float64
	for i := 0; i+4 <= len(vol); i += 4 * 17 {
		sum += float64(getF32(vol[i:]))
	}
	return math.Round(sum * 100)
}
