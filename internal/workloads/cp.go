package workloads

import (
	"math"

	"repro/gmac"
	"repro/internal/accel"
	"repro/internal/cudart"
	"repro/internal/mem"
	"repro/machine"
)

// CP is the Parboil coulombic-potential benchmark: it computes the
// electrostatic potential at each point of a 2D grid plane induced by
// randomly placed point charges, one plane per kernel invocation, writing
// each computed plane to disk.
type CP struct {
	// Atoms is the number of point charges.
	Atoms int64
	// GX, GY are the grid plane dimensions.
	GX, GY int64
	// Planes is the number of z-planes computed (one kernel call each).
	Planes int
}

// DefaultCP returns the evaluation-scale configuration.
func DefaultCP() *CP { return &CP{Atoms: 256, GX: 96, GY: 96, Planes: 3} }

// SmallCP returns a fast configuration for unit tests.
func SmallCP() *CP { return &CP{Atoms: 32, GX: 16, GY: 16, Planes: 2} }

// Name implements Benchmark.
func (*CP) Name() string { return "cp" }

// Description implements Benchmark.
func (*CP) Description() string {
	return "Computes the coulombic potential at each grid point over a plane in a 3D grid with randomly distributed point charges (adapted from VMD 'cionize')."
}

// atomData generates the deterministic charge array: x, y, z, q per atom.
func (c *CP) atomData() []float32 {
	rng := NewRand(42)
	atoms := make([]float32, c.Atoms*4)
	for i := int64(0); i < c.Atoms; i++ {
		atoms[i*4+0] = rng.Float32() * float32(c.GX)
		atoms[i*4+1] = rng.Float32() * float32(c.GY)
		atoms[i*4+2] = rng.Float32() * 8
		atoms[i*4+3] = rng.Float32()*2 - 1
	}
	return atoms
}

// cpRows is the number of grid rows a cp.potential piece computes: 6
// pieces at evaluation scale, one in SmallCP.
const cpRows = 16

// Register implements Benchmark.
func (c *CP) Register(dev *accel.Device) {
	dev.Register(&accel.Kernel{
		Name: "cp.potential",
		// args: gridPtr, atomsPtr, natoms, gx, gy, zBits
		Run: func(devmem *mem.Space, args []uint64) {
			grid, atoms := mem.Addr(args[0]), mem.Addr(args[1])
			natoms, gx, gy := int64(args[2]), int64(args[3]), int64(args[4])
			z := math.Float32frombits(uint32(args[5]))
			ab := devmem.Bytes(atoms, natoms*16)
			gb := devmem.Bytes(grid, gx*gy*4)
			splitKernel("cp.potential", gy, cpRows, func(_ int, lo, hi int64) {
				for y := lo; y < hi; y++ {
					for x := int64(0); x < gx; x++ {
						var pot float32
						for a := int64(0); a < natoms; a++ {
							dx := getF32(ab[a*16:]) - float32(x)
							dy := getF32(ab[a*16+4:]) - float32(y)
							dz := getF32(ab[a*16+8:]) - z
							q := getF32(ab[a*16+12:])
							r2 := dx*dx + dy*dy + dz*dz + 0.5
							pot += q / sqrt32(r2)
						}
						putF32(gb[(y*gx+x)*4:], pot)
					}
				}
			})
		},
		// The body samples the charge set; the cost model charges the
		// cionize-scale atom count of the real benchmark input.
		Cost: func(args []uint64) (float64, int64) {
			gx, gy := float64(args[3]), float64(args[4])
			const modelAtoms = 131072
			return 10 * modelAtoms * gx * gy, int64(gx * gy * 4)
		},
	})
}

func sqrt32(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// Prepare implements Benchmark (inputs are generated, not read).
func (*CP) Prepare(*machine.Machine) error { return nil }

// RunCUDA implements Benchmark.
func (c *CP) RunCUDA(m *machine.Machine, rt *cudart.Runtime) (float64, error) {
	atomBytes := c.Atoms * 16
	gridBytes := c.GX * c.GY * 4
	hostAtoms := rt.MallocHost(atomBytes)
	hostGrid := rt.MallocHost(gridBytes)
	copy(hostAtoms, f32bytes(c.atomData()))
	m.CPUTouch(atomBytes)

	devAtoms, err := rt.Malloc(atomBytes)
	if err != nil {
		return 0, err
	}
	devGrid, err := rt.Malloc(gridBytes)
	if err != nil {
		return 0, err
	}
	rt.MemcpyH2D(devAtoms, hostAtoms)

	out := m.FS.Create("cp.out")
	var sum float64
	for p := 0; p < c.Planes; p++ {
		z := math.Float32bits(float32(p) * 2)
		if err := rt.Launch("cp.potential", uint64(devGrid), uint64(devAtoms),
			uint64(c.Atoms), uint64(c.GX), uint64(c.GY), uint64(z)); err != nil {
			return 0, err
		}
		rt.Synchronize()
		rt.MemcpyD2H(hostGrid, devGrid)
		if _, err := out.Write(hostGrid); err != nil {
			return 0, err
		}
		m.CPUTouch(gridBytes)
		for i := int64(0); i < gridBytes; i += 4 {
			sum += float64(getF32(hostGrid[i:]))
		}
	}
	if err := rt.Free(devAtoms); err != nil {
		return 0, err
	}
	if err := rt.Free(devGrid); err != nil {
		return 0, err
	}
	return math.Round(sum * 100), nil
}

// RunGMAC implements Benchmark.
func (c *CP) RunGMAC(ctx gmac.Session) (float64, error) {
	m := ctx.Machine()
	atomBytes := c.Atoms * 16
	gridBytes := c.GX * c.GY * 4
	atoms, err := ctx.Alloc(atomBytes)
	if err != nil {
		return 0, err
	}
	grid, err := ctx.Alloc(gridBytes)
	if err != nil {
		return 0, err
	}
	if err := ctx.HostWrite(atoms, f32bytes(c.atomData())); err != nil {
		return 0, err
	}
	m.CPUTouch(atomBytes)

	out := m.FS.Create("cp.out")
	buf := make([]byte, gridBytes)
	var sum float64
	for p := 0; p < c.Planes; p++ {
		z := math.Float32bits(float32(p) * 2)
		if err := ctx.Call("cp.potential", []uint64{uint64(grid), uint64(atoms),
			uint64(c.Atoms), uint64(c.GX), uint64(c.GY), uint64(z)}); err != nil {
			return 0, err
		}
		// The shared pointer goes straight into the write path (§4.4).
		if _, err := ctx.WriteFile(out, grid, gridBytes); err != nil {
			return 0, err
		}
		if err := ctx.HostRead(grid, buf); err != nil {
			return 0, err
		}
		m.CPUTouch(gridBytes)
		for i := int64(0); i < gridBytes; i += 4 {
			sum += float64(getF32(buf[i:]))
		}
	}
	if err := ctx.Free(atoms); err != nil {
		return 0, err
	}
	if err := ctx.Free(grid); err != nil {
		return 0, err
	}
	return math.Round(sum * 100), nil
}
