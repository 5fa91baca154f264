package cudart

import (
	"bytes"
	"testing"

	"repro/internal/accel"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/sim"
)

func newRT(t *testing.T) (*Runtime, *sim.Clock, *sim.Breakdown) {
	t.Helper()
	clock := sim.NewClock()
	bd := sim.NewBreakdown()
	dev := accel.New(accel.Config{
		Name: "gpu", MemBase: 0x1000_0000, MemSize: 32 << 20, AllocAlign: 4096,
		GFLOPS: 100, MemLink: interconnect.G280Memory(),
		H2D: interconnect.PCIe2x16H2D(), D2H: interconnect.PCIe2x16D2H(),
		LaunchOverhead: 8 * sim.Microsecond, AllocOverhead: 40 * sim.Microsecond,
	}, clock)
	return New(dev, clock, bd), clock, bd
}

func TestExplicitTransferPattern(t *testing.T) {
	// The Figure 3 baseline pattern: malloc, cudaMalloc, cudaMemcpy,
	// launch, synchronize, cudaMemcpy back.
	rt, _, bd := newRT(t)
	rt.Device().Register(&accel.Kernel{
		Name: "double",
		Run: func(dev *mem.Space, args []uint64) {
			p, n := mem.Addr(args[0]), int64(args[1])
			for i := int64(0); i < n; i++ {
				dev.SetUint32(p+mem.Addr(i*4), dev.Uint32(p+mem.Addr(i*4))*2)
			}
		},
		Cost: accel.FixedCost(1e6, 8<<10),
	})

	host := rt.MallocHost(4096)
	for i := range host {
		host[i] = 1
	}
	devp, err := rt.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	rt.MemcpyH2D(devp, host)
	if err := rt.Launch("double", uint64(devp), 1024); err != nil {
		t.Fatal(err)
	}
	rt.Synchronize()
	out := make([]byte, 4096)
	rt.MemcpyD2H(out, devp)
	// 0x01010101 * 2 = 0x02020202 per word.
	if out[0] != 2 || out[4095] != 2 {
		t.Fatalf("kernel result wrong: %d %d", out[0], out[4095])
	}
	if err := rt.Free(devp); err != nil {
		t.Fatal(err)
	}
	// Breakdown slices populated with the CUDA-side categories.
	for _, cat := range []sim.Category{sim.CatCudaMalloc, sim.CatCudaFree,
		sim.CatCudaLaunch, sim.CatCopy, sim.CatGPU, sim.CatMalloc} {
		if bd.Get(cat) == 0 {
			t.Errorf("category %s empty", cat)
		}
	}
}

func TestAsyncDoubleBuffering(t *testing.T) {
	// The double-buffering pattern of §2.2: async copies overlap with host
	// work, synchronize drains them.
	rt, clock, _ := newRT(t)
	devp, _ := rt.Malloc(8 << 20)
	chunk := make([]byte, 1<<20)
	for i := range chunk {
		chunk[i] = 0xaa
	}
	t0 := clock.Now()
	for off := int64(0); off < 8<<20; off += 1 << 20 {
		rt.MemcpyH2DAsync(devp+mem.Addr(off), chunk)
		clock.Advance(100 * sim.Microsecond) // host "produces" the next chunk
	}
	submitted := clock.Now() - t0
	rt.Synchronize()
	total := clock.Now() - t0
	if total <= submitted {
		t.Fatal("synchronize did not wait for async copies")
	}
	// Data landed.
	got := make([]byte, 4)
	rt.Device().Memory().Read(devp+7<<20, got)
	if !bytes.Equal(got, []byte{0xaa, 0xaa, 0xaa, 0xaa}) {
		t.Fatalf("async copy lost data: %v", got)
	}
}

func TestMemsetAndAsyncD2H(t *testing.T) {
	rt, _, _ := newRT(t)
	devp, _ := rt.Malloc(4096)
	rt.Memset(devp, 0x7f, 4096)
	out := make([]byte, 4096)
	rt.MemcpyD2HAsync(out, devp)
	rt.Synchronize()
	if out[0] != 0x7f || out[4095] != 0x7f {
		t.Fatalf("memset+async d2h: %d %d", out[0], out[4095])
	}
}

func TestLaunchUnknown(t *testing.T) {
	rt, _, _ := newRT(t)
	if err := rt.Launch("nope"); err == nil {
		t.Fatal("unknown kernel launch succeeded")
	}
}
