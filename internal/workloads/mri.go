package workloads

import (
	"math"

	"repro/gmac"
	"repro/internal/accel"
	"repro/internal/cudart"
	"repro/internal/mem"
	"repro/machine"
)

// MRI implements the two Parboil magnetic-resonance-imaging benchmarks,
// mri-q and mri-fhd: both reconstruct 3D images sampled in non-Cartesian
// k-space, reading their sample and voxel data from disk (they are the
// most I/O-intensive Parboil benchmarks — see the IORead slices of
// Figure 10) and running two kernels over the voxel grid.
type MRI struct {
	// FHD selects mri-fhd (true) or mri-q (false).
	FHD bool
	// K is the number of k-space samples.
	K int64
	// X is the number of voxels.
	X int64
}

// DefaultMRIQ returns the evaluation-scale mri-q configuration.
func DefaultMRIQ() *MRI { return &MRI{K: 512, X: 2048} }

// DefaultMRIFHD returns the evaluation-scale mri-fhd configuration.
func DefaultMRIFHD() *MRI { return &MRI{FHD: true, K: 512, X: 2048} }

// SmallMRIQ returns a fast mri-q configuration for unit tests.
func SmallMRIQ() *MRI { return &MRI{K: 64, X: 128} }

// SmallMRIFHD returns a fast mri-fhd configuration for unit tests.
func SmallMRIFHD() *MRI { return &MRI{FHD: true, K: 64, X: 128} }

// Name implements Benchmark.
func (b *MRI) Name() string {
	if b.FHD {
		return "mri-fhd"
	}
	return "mri-q"
}

// Description implements Benchmark.
func (b *MRI) Description() string {
	if b.FHD {
		return "Computes an image-specific matrix FHd used in 3D MRI reconstruction in non-Cartesian k-space."
	}
	return "Computes the scanner-configuration matrix Q used in 3D MRI reconstruction in non-Cartesian k-space."
}

// mriPiece is the number of voxels an accumulate piece computes: 8 pieces
// at evaluation scale, one in the small configurations.
const mriPiece = 256

func (b *MRI) prefix() string { return b.Name() + "/" }

// Prepare implements Benchmark: it writes the k-space samples and voxel
// coordinates as input files.
func (b *MRI) Prepare(m *machine.Machine) error {
	rng := NewRand(7)
	mk := func(name string, n int64, scale float32) {
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = (rng.Float32() - 0.5) * scale
		}
		m.FS.CreateWith(b.prefix()+name, f32bytes(xs))
	}
	mk("kx", b.K, 2)
	mk("ky", b.K, 2)
	mk("kz", b.K, 2)
	if b.FHD {
		mk("rRho", b.K, 1)
		mk("iRho", b.K, 1)
	} else {
		mk("phiR", b.K, 1)
		mk("phiI", b.K, 1)
	}
	mk("x", b.X, 1)
	mk("y", b.X, 1)
	mk("z", b.X, 1)
	return nil
}

// Register implements Benchmark. Both benchmarks share the layout:
// kdata object: kx|ky|kz|w0|w1 (5K floats), voxel object: x|y|z (3X),
// out object: re|im (2X). A first kernel preprocesses the per-sample
// weights, the second accumulates over all samples for every voxel.
func (b *MRI) Register(dev *accel.Device) {
	fhd := b.FHD
	dev.Register(&accel.Kernel{
		Name: b.Name() + ".weights",
		// args: kdataPtr, K — computes |w|^2 (mri-q's PhiMag) or scales the
		// rho weights (mri-fhd's Mu), in place over w0/w1.
		Run: func(devmem *mem.Space, args []uint64) {
			kd, k := mem.Addr(args[0]), int64(args[1])
			buf := devmem.Bytes(kd, k*5*4)
			w0 := buf[3*k*4:]
			w1 := buf[4*k*4:]
			for i := int64(0); i < k; i++ {
				a := getF32(w0[i*4:])
				c := getF32(w1[i*4:])
				if fhd {
					putF32(w0[i*4:], a*0.5)
					putF32(w1[i*4:], c*0.5)
				} else {
					putF32(w0[i*4:], a*a+c*c)
					putF32(w1[i*4:], 0)
				}
			}
		},
		Cost: func(args []uint64) (float64, int64) {
			k := int64(args[1])
			return 3 * float64(k), 4 * k * 4
		},
	})
	name := b.Name() + ".accumulate"
	dev.Register(&accel.Kernel{
		Name: name,
		// args: kdataPtr, voxelPtr, outPtr, K, X
		Run: func(devmem *mem.Space, args []uint64) {
			kd, vox, out := mem.Addr(args[0]), mem.Addr(args[1]), mem.Addr(args[2])
			k, x := int64(args[3]), int64(args[4])
			kb := devmem.Bytes(kd, k*5*4)
			vb := devmem.Bytes(vox, x*3*4)
			ob := devmem.Bytes(out, x*2*4)
			splitKernel(name, x, mriPiece, func(_ int, lo, hi int64) {
				for i := lo; i < hi; i++ {
					xi := getF32(vb[i*4:])
					yi := getF32(vb[(x+i)*4:])
					zi := getF32(vb[(2*x+i)*4:])
					var re, im float32
					for s := int64(0); s < k; s++ {
						arg := float64(2 * math.Pi * (getF32(kb[s*4:])*xi +
							getF32(kb[(k+s)*4:])*yi + getF32(kb[(2*k+s)*4:])*zi))
						c, sn := float32(math.Cos(arg)), float32(math.Sin(arg))
						w0 := getF32(kb[(3*k+s)*4:])
						w1 := getF32(kb[(4*k+s)*4:])
						if fhd {
							re += w0*c + w1*sn
							im += w1*c - w0*sn
						} else {
							re += w0 * c
							im += w0 * sn
						}
					}
					putF32(ob[i*4:], re)
					putF32(ob[(x+i)*4:], im)
				}
			})
		},
		// The body reconstructs a sampled voxel grid; the cost model
		// charges the benchmark's full grid (512x the sample).
		Cost: func(args []uint64) (float64, int64) {
			k, x := float64(args[3]), float64(args[4])
			const modelScale = 512
			return 16 * k * x * modelScale, int64(args[4]) * 8
		},
	})
}

// inputNames lists the sample input files in kdata layout order.
func (b *MRI) inputNames() []string {
	if b.FHD {
		return []string{"kx", "ky", "kz", "rRho", "iRho"}
	}
	return []string{"kx", "ky", "kz", "phiR", "phiI"}
}

// RunCUDA implements Benchmark.
func (b *MRI) RunCUDA(m *machine.Machine, rt *cudart.Runtime) (float64, error) {
	kBytes := b.K * 5 * 4
	vBytes := b.X * 3 * 4
	oBytes := b.X * 2 * 4
	hostK := rt.MallocHost(kBytes)
	hostV := rt.MallocHost(vBytes)
	hostO := rt.MallocHost(oBytes)
	// fread each input into the host staging area.
	for i, name := range b.inputNames() {
		f, err := m.FS.Open(b.prefix() + name)
		if err != nil {
			return 0, err
		}
		if _, err := f.Read(hostK[int64(i)*b.K*4 : (int64(i)+1)*b.K*4]); err != nil {
			return 0, err
		}
	}
	for i, name := range []string{"x", "y", "z"} {
		f, err := m.FS.Open(b.prefix() + name)
		if err != nil {
			return 0, err
		}
		if _, err := f.Read(hostV[int64(i)*b.X*4 : (int64(i)+1)*b.X*4]); err != nil {
			return 0, err
		}
	}
	devK, err := rt.Malloc(kBytes)
	if err != nil {
		return 0, err
	}
	devV, err := rt.Malloc(vBytes)
	if err != nil {
		return 0, err
	}
	devO, err := rt.Malloc(oBytes)
	if err != nil {
		return 0, err
	}
	rt.MemcpyH2D(devK, hostK)
	rt.MemcpyH2D(devV, hostV)
	if err := rt.Launch(b.Name()+".weights", uint64(devK), uint64(b.K)); err != nil {
		return 0, err
	}
	if err := rt.Launch(b.Name()+".accumulate", uint64(devK), uint64(devV), uint64(devO),
		uint64(b.K), uint64(b.X)); err != nil {
		return 0, err
	}
	rt.Synchronize()
	rt.MemcpyD2H(hostO, devO)
	out := m.FS.Create(b.Name() + ".out")
	if _, err := out.Write(hostO); err != nil {
		return 0, err
	}
	sum := b.fold(hostO)
	for _, p := range []mem.Addr{devK, devV, devO} {
		if err := rt.Free(p); err != nil {
			return 0, err
		}
	}
	return sum, nil
}

// RunGMAC implements Benchmark.
func (b *MRI) RunGMAC(ctx gmac.Session) (float64, error) {
	m := ctx.Machine()
	kBytes := b.K * 5 * 4
	vBytes := b.X * 3 * 4
	oBytes := b.X * 2 * 4
	kd, err := ctx.Alloc(kBytes)
	if err != nil {
		return 0, err
	}
	vox, err := ctx.Alloc(vBytes)
	if err != nil {
		return 0, err
	}
	outp, err := ctx.Alloc(oBytes)
	if err != nil {
		return 0, err
	}
	// Shared pointers go straight into the read path: the peer-DMA
	// illusion of §4.4.
	for i, name := range b.inputNames() {
		f, err := m.FS.Open(b.prefix() + name)
		if err != nil {
			return 0, err
		}
		if _, err := ctx.ReadFile(f, kd+gmac.Ptr(int64(i)*b.K*4), b.K*4); err != nil {
			return 0, err
		}
	}
	for i, name := range []string{"x", "y", "z"} {
		f, err := m.FS.Open(b.prefix() + name)
		if err != nil {
			return 0, err
		}
		if _, err := ctx.ReadFile(f, vox+gmac.Ptr(int64(i)*b.X*4), b.X*4); err != nil {
			return 0, err
		}
	}
	if err := ctx.Call(b.Name()+".weights", []uint64{uint64(kd), uint64(b.K)}, gmac.Async()); err != nil {
		return 0, err
	}
	if err := ctx.Call(b.Name()+".accumulate", []uint64{uint64(kd), uint64(vox), uint64(outp),
		uint64(b.K), uint64(b.X)}, gmac.Async()); err != nil {
		return 0, err
	}
	if err := ctx.Sync(); err != nil {
		return 0, err
	}
	out := m.FS.Create(b.Name() + ".out")
	if _, err := ctx.WriteFile(out, outp, oBytes); err != nil {
		return 0, err
	}
	buf := make([]byte, oBytes)
	if err := ctx.HostRead(outp, buf); err != nil {
		return 0, err
	}
	sum := b.fold(buf)
	for _, p := range []gmac.Ptr{kd, vox, outp} {
		if err := ctx.Free(p); err != nil {
			return 0, err
		}
	}
	return sum, nil
}

func (b *MRI) fold(outBytes []byte) float64 {
	xs := make([]float32, len(outBytes)/4)
	for i := range xs {
		xs[i] = getF32(outBytes[i*4:])
	}
	return checksum(xs)
}
