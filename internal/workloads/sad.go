package workloads

import (
	"repro/gmac"
	"repro/internal/accel"
	"repro/internal/cudart"
	"repro/internal/mem"
	"repro/machine"
)

// SAD is the Parboil sum-of-absolute-differences benchmark from the JM
// H.264 reference encoder's full-pixel motion estimation: it reads a
// current and a reference frame from disk and computes SADs for 4x4 macro
// blocks over a square search window, then hierarchically aggregates them
// into 8x8 and 16x16 block SADs (three kernel invocations).
type SAD struct {
	// W, H are the frame dimensions in pixels (multiples of 16).
	W, H int64
	// Range is the motion search range: positions span (2*Range+1)^2.
	Range int64
}

// DefaultSAD returns the evaluation-scale configuration.
func DefaultSAD() *SAD { return &SAD{W: 192, H: 192, Range: 4} }

// SmallSAD returns a fast configuration for unit tests.
func SmallSAD() *SAD { return &SAD{W: 32, H: 32, Range: 1} }

// Name implements Benchmark.
func (*SAD) Name() string { return "sad" }

// Description implements Benchmark.
func (*SAD) Description() string {
	return "Sum-of-absolute-differences kernel from MPEG video encoders, based on the JM reference H.264 full-pixel motion estimation."
}

func (s *SAD) positions() int64 { d := 2*s.Range + 1; return d * d }

func (s *SAD) frame(seed uint64) []byte {
	rng := NewRand(seed)
	buf := make([]byte, s.W*s.H)
	for i := range buf {
		buf[i] = byte(rng.Intn(256))
	}
	return buf
}

// Prepare implements Benchmark: write the two frames as input files.
func (s *SAD) Prepare(m *machine.Machine) error {
	m.FS.CreateWith("sad/cur.y", s.frame(100))
	m.FS.CreateWith("sad/ref.y", s.frame(200))
	return nil
}

// sadRows is the number of 4x4-block rows an sad.mb4 piece computes: 6
// pieces at evaluation scale, one in SmallSAD.
const sadRows = 8

// Register implements Benchmark.
func (s *SAD) Register(dev *accel.Device) {
	w, h, rng := s.W, s.H, s.Range
	pos := s.positions()
	dev.Register(&accel.Kernel{
		Name: "sad.mb4",
		// args: curPtr, refPtr, outPtr — SAD of every 4x4 block at every
		// search position.
		Run: func(devmem *mem.Space, args []uint64) {
			cur := devmem.Bytes(mem.Addr(args[0]), w*h)
			ref := devmem.Bytes(mem.Addr(args[1]), w*h)
			out := devmem.Bytes(mem.Addr(args[2]), (w/4)*(h/4)*pos*4)
			splitKernel("sad.mb4", h/4, sadRows, func(_ int, lo, hi int64) {
				for by := lo * 4; by < hi*4; by += 4 {
					for bx := int64(0); bx < w; bx += 4 {
						bi := by/4*(w/4) + bx/4
						pi := int64(0)
						for dy := -rng; dy <= rng; dy++ {
							for dx := -rng; dx <= rng; dx++ {
								var sad uint32
								for y := int64(0); y < 4; y++ {
									for x := int64(0); x < 4; x++ {
										cy, cx := by+y, bx+x
										ry := (cy + dy + h) % h
										rx := (cx + dx + w) % w
										c := int32(cur[cy*w+cx])
										r := int32(ref[ry*w+rx])
										d := c - r
										if d < 0 {
											d = -d
										}
										sad += uint32(d)
									}
								}
								putLeU32(out[(bi*pos+pi)*4:], sad)
								pi++
							}
						}
					}
				}
			})
		},
		// The body runs a reduced frame and search range; the cost model
		// charges the JM reference configuration (704x480 frames, +/-16
		// search, all partition shapes).
		Cost: func([]uint64) (float64, int64) {
			const mw, mh, mpos, passes = 704, 480, 33 * 33, 8
			work := float64((mw / 4) * (mh / 4) * mpos * 16 * 3 * passes)
			return work, mw*mh*2 + (mw/4)*(mh/4)*mpos*4
		},
	})
	agg := func(name string, inBlocksX, inBlocksY int64) {
		dev.Register(&accel.Kernel{
			Name: name,
			// args: inPtr, outPtr — sums 2x2 neighbourhoods of child SADs.
			Run: func(devmem *mem.Space, args []uint64) {
				in := devmem.Bytes(mem.Addr(args[0]), inBlocksX*inBlocksY*pos*4)
				out := devmem.Bytes(mem.Addr(args[1]), (inBlocksX/2)*(inBlocksY/2)*pos*4)
				oi := int64(0)
				for by := int64(0); by < inBlocksY; by += 2 {
					for bx := int64(0); bx < inBlocksX; bx += 2 {
						for p := int64(0); p < pos; p++ {
							sum := leU32(in[((by*inBlocksX+bx)*pos+p)*4:]) +
								leU32(in[((by*inBlocksX+bx+1)*pos+p)*4:]) +
								leU32(in[(((by+1)*inBlocksX+bx)*pos+p)*4:]) +
								leU32(in[(((by+1)*inBlocksX+bx+1)*pos+p)*4:])
							putLeU32(out[(oi*pos+p)*4:], sum)
						}
						oi++
					}
				}
			},
			Cost: func([]uint64) (float64, int64) {
				const mpos = 33 * 33
				n := int64((704 / 8) * (480 / 8) * mpos)
				return float64(n * 4), n * 20
			},
		})
	}
	agg("sad.mb8", w/4, h/4)
	agg("sad.mb16", w/8, h/8)
}

// outSizes returns the byte sizes of the three SAD result arrays.
func (s *SAD) outSizes() (o4, o8, o16 int64) {
	pos := s.positions()
	o4 = (s.W / 4) * (s.H / 4) * pos * 4
	o8 = (s.W / 8) * (s.H / 8) * pos * 4
	o16 = (s.W / 16) * (s.H / 16) * pos * 4
	return
}

// RunCUDA implements Benchmark.
func (s *SAD) RunCUDA(m *machine.Machine, rt *cudart.Runtime) (float64, error) {
	frameBytes := s.W * s.H
	o4, o8, o16 := s.outSizes()
	hostCur := rt.MallocHost(frameBytes)
	hostRef := rt.MallocHost(frameBytes)
	hostOut := rt.MallocHost(o16)
	for _, in := range []struct {
		name string
		buf  []byte
	}{{"sad/cur.y", hostCur}, {"sad/ref.y", hostRef}} {
		f, err := m.FS.Open(in.name)
		if err != nil {
			return 0, err
		}
		if _, err := f.Read(in.buf); err != nil {
			return 0, err
		}
	}
	devCur, err := rt.Malloc(frameBytes)
	if err != nil {
		return 0, err
	}
	devRef, err := rt.Malloc(frameBytes)
	if err != nil {
		return 0, err
	}
	dev4, err := rt.Malloc(o4)
	if err != nil {
		return 0, err
	}
	dev8, err := rt.Malloc(o8)
	if err != nil {
		return 0, err
	}
	dev16, err := rt.Malloc(o16)
	if err != nil {
		return 0, err
	}
	rt.MemcpyH2D(devCur, hostCur)
	rt.MemcpyH2D(devRef, hostRef)
	if err := rt.Launch("sad.mb4", uint64(devCur), uint64(devRef), uint64(dev4)); err != nil {
		return 0, err
	}
	if err := rt.Launch("sad.mb8", uint64(dev4), uint64(dev8)); err != nil {
		return 0, err
	}
	if err := rt.Launch("sad.mb16", uint64(dev8), uint64(dev16)); err != nil {
		return 0, err
	}
	rt.Synchronize()
	rt.MemcpyD2H(hostOut, dev16)
	out := m.FS.Create("sad.out")
	if _, err := out.Write(hostOut); err != nil {
		return 0, err
	}
	sum := checksumBytes(hostOut)
	for _, p := range []mem.Addr{devCur, devRef, dev4, dev8, dev16} {
		if err := rt.Free(p); err != nil {
			return 0, err
		}
	}
	return sum, nil
}

// RunGMAC implements Benchmark.
func (s *SAD) RunGMAC(ctx gmac.Session) (float64, error) {
	m := ctx.Machine()
	frameBytes := s.W * s.H
	o4, o8, o16 := s.outSizes()
	cur, err := ctx.Alloc(frameBytes)
	if err != nil {
		return 0, err
	}
	ref, err := ctx.Alloc(frameBytes)
	if err != nil {
		return 0, err
	}
	r4, err := ctx.Alloc(o4)
	if err != nil {
		return 0, err
	}
	r8, err := ctx.Alloc(o8)
	if err != nil {
		return 0, err
	}
	r16, err := ctx.Alloc(o16)
	if err != nil {
		return 0, err
	}
	for _, in := range []struct {
		name string
		p    gmac.Ptr
	}{{"sad/cur.y", cur}, {"sad/ref.y", ref}} {
		f, err := m.FS.Open(in.name)
		if err != nil {
			return 0, err
		}
		if _, err := ctx.ReadFile(f, in.p, frameBytes); err != nil {
			return 0, err
		}
	}
	if err := ctx.Call("sad.mb4", []uint64{uint64(cur), uint64(ref), uint64(r4)}, gmac.Async()); err != nil {
		return 0, err
	}
	if err := ctx.Call("sad.mb8", []uint64{uint64(r4), uint64(r8)}, gmac.Async()); err != nil {
		return 0, err
	}
	if err := ctx.Call("sad.mb16", []uint64{uint64(r8), uint64(r16)}, gmac.Async()); err != nil {
		return 0, err
	}
	if err := ctx.Sync(); err != nil {
		return 0, err
	}
	out := m.FS.Create("sad.out")
	if _, err := ctx.WriteFile(out, r16, o16); err != nil {
		return 0, err
	}
	final := make([]byte, o16)
	if err := ctx.HostRead(r16, final); err != nil {
		return 0, err
	}
	sum := checksumBytes(final)
	for _, p := range []gmac.Ptr{cur, ref, r4, r8, r16} {
		if err := ctx.Free(p); err != nil {
			return 0, err
		}
	}
	return sum, nil
}
