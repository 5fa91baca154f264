package accel

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func testDevice(t *testing.T) (*Device, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	d := New(Config{
		Name:           "testgpu",
		MemBase:        0x100000000,
		MemSize:        1 << 24, // 16 MB
		GFLOPS:         100,
		MemLink:        &interconnect.Link{Name: "gddr", Latency: 100, PeakBps: 100e9},
		H2D:            &interconnect.Link{Name: "h2d", Latency: 1000, PeakBps: 1e9},
		D2H:            &interconnect.Link{Name: "d2h", Latency: 1000, PeakBps: 1e9},
		LaunchOverhead: 5 * sim.Microsecond,
		AllocOverhead:  20 * sim.Microsecond,
	}, clock)
	return d, clock
}

func TestMallocFree(t *testing.T) {
	d, clock := testDevice(t)
	p, err := d.Malloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if p < d.Config().MemBase {
		t.Fatalf("allocation below device memory base: %#x", uint64(p))
	}
	if clock.Now() != 20*sim.Microsecond {
		t.Fatalf("malloc charged %v, want 20us", clock.Now())
	}
	q, err := d.Malloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if q != p+1024 {
		t.Fatalf("next allocation at +%d, want +1024 (1000 bytes aligned)", q-p)
	}
	for _, a := range []mem.Addr{p, q} {
		if err := d.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	if d.LiveAllocs() != 0 {
		t.Fatalf("live allocs %d after free", d.LiveAllocs())
	}
	if st := d.Stats(); st.Allocs != 2 || st.Frees != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMemcpyRoundTrip(t *testing.T) {
	d, _ := testDevice(t)
	p, _ := d.Malloc(64)
	src := []byte("the quick brown fox jumps over the lazy dog....")
	d.MemcpyH2D(p, src)
	dst := make([]byte, len(src))
	d.MemcpyD2H(dst, p)
	if !bytes.Equal(src, dst) {
		t.Fatalf("round trip corrupted data: %q", dst)
	}
	st := d.Stats()
	if st.BytesH2D != int64(len(src)) || st.BytesD2H != int64(len(src)) {
		t.Fatalf("byte counters %+v", st)
	}
}

// TestMaskedH2DTimesAllCopiesSelected: a masked write-back is timed and
// counted on all of src, but lands only the selected pages (the short last
// page included) and leaves the others as they were.
func TestMaskedH2DTimesAllCopiesSelected(t *testing.T) {
	const page, n = 64, 5*64 - 10
	full, _ := testDevice(t)
	masked, _ := testDevice(t)
	src := bytes.Repeat([]byte{0xab}, n)
	var done [2]sim.Completion
	for i, d := range []*Device{full, masked} {
		p, err := d.Malloc(n)
		if err != nil {
			t.Fatal(err)
		}
		mask := PageMask{}
		if d == masked {
			// Bits 2, 4 and 6 of the bitmap are pages 0, 2 and 4 of src.
			mask = PageMask{Bits: []uint64{1<<2 | 1<<4 | 1<<6}, First: 2, PageSize: page}
		}
		if done[i], err = d.TryMemcpyH2DAsync(p, src, mask); err != nil {
			t.Fatal(err)
		}
		if st := d.Stats(); st.BytesH2D != n || st.CopiesH2D != 1 {
			t.Fatalf("stats %+v, want %d bytes in one copy", st, n)
		}
	}
	if done[0] != done[1] {
		t.Fatalf("masked copy completes at %v, full copy at %v", done[1], done[0])
	}
	got := masked.Memory().Bytes(masked.Config().MemBase, n)
	for i, b := range got {
		want := byte(0)
		if pg := i / page; pg%2 == 0 {
			want = 0xab
		}
		if b != want {
			t.Fatalf("byte %d (page %d) = %#x, want %#x", i, i/page, b, want)
		}
	}
}

// TestMaskedH2DLandsSelectedRuns: a masked write-back lands exactly the
// pages whose bit is set, read one bit at a time, and Sent counts exactly
// their bytes: runs that cross 64-bit words, a first page in the middle of
// a word, a short last page that lands or does not, and random masks.
func TestMaskedH2DLandsSelectedRuns(t *testing.T) {
	const page = 64
	cases := []struct {
		name  string
		bits  []uint64
		first int
		size  int64
	}{
		{"run across a word", []uint64{0xffff << 48, 0xffff}, 0, 128 * page},
		{"first page mid-word", []uint64{0xf0f0_f0f0_f0f0_f0f0, 0xffff_ffff_0000_0000, 0x1}, 37, 100 * page},
		{"every page across three words", []uint64{^uint64(0), ^uint64(0), ^uint64(0)}, 5, 150 * page},
		{"run ends at a word end", []uint64{0xf << 60, 0}, 0, 64 * page},
		{"short last page lands", []uint64{1 << 63, 1}, 63, 2*page - 10},
		{"short last page stays", []uint64{1 << 63, 0}, 63, 2*page - 10},
		{"no page", []uint64{0, 0}, 3, 70 * page},
	}
	rng := rand.New(rand.NewSource(1))
	for i := range 20 {
		bits := []uint64{rng.Uint64(), rng.Uint64() & rng.Uint64(), rng.Uint64() | rng.Uint64(), rng.Uint64()}
		first := rng.Intn(64)
		cases = append(cases, struct {
			name  string
			bits  []uint64
			first int
			size  int64
		}{fmt.Sprintf("random %d", i), bits, first, rng.Int63n(int64(256-first)*page) + 1})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, _ := testDevice(t)
			p, err := d.Malloc(tc.size)
			if err != nil {
				t.Fatal(err)
			}
			src := make([]byte, tc.size)
			for i := range src {
				src[i] = byte(i/page + 1)
			}
			mask := PageMask{Bits: tc.bits, First: tc.first, PageSize: page}
			if _, err := d.TryMemcpyH2DAsync(p, src, mask); err != nil {
				t.Fatal(err)
			}
			var sent int64
			got := d.Memory().Bytes(p, tc.size)
			for i := range got {
				b := tc.first + i/page
				want := byte(0)
				if tc.bits[b>>6]>>(b&63)&1 != 0 {
					want, sent = src[i], sent+1
				}
				if got[i] != want {
					t.Fatalf("byte %d (page %d) = %#x, want %#x", i, i/page, got[i], want)
				}
			}
			if got := mask.Sent(tc.size); got != sent {
				t.Fatalf("Sent = %d, the selected pages hold %d bytes", got, sent)
			}
		})
	}
}

func TestAsyncCopyOverlapsCPU(t *testing.T) {
	d, clock := testDevice(t)
	p, _ := d.Malloc(1 << 20)
	start := clock.Now()
	buf := make([]byte, 1<<20) // 1MB at 1GB/s = ~1ms wire time
	done := d.MemcpyH2DAsync(p, buf)
	if clock.Now() != start {
		t.Fatal("async copy blocked the host")
	}
	// CPU does 2ms of work; the copy (~1ms) completes underneath it.
	clock.Advance(2 * sim.Millisecond)
	if stall := done.Wait(clock); stall != 0 {
		t.Fatalf("copy was not overlapped: stalled %v", stall)
	}
}

func TestDMASerialisation(t *testing.T) {
	d, clock := testDevice(t)
	p, _ := d.Malloc(2 << 20)
	buf := make([]byte, 1<<20)
	c1 := d.MemcpyH2DAsync(p, buf)
	c2 := d.MemcpyH2DAsync(p+1<<20, buf)
	if c2.At <= c1.At {
		t.Fatalf("H2D copies did not serialise: %v then %v", c1.At, c2.At)
	}
	// Opposite directions use independent DMA engines and may overlap.
	c3 := d.MemcpyD2HAsync(buf, p)
	if c3.At >= c2.At+c2.At { // loose bound: started immediately, not after c2
		t.Fatalf("D2H copy appears serialised behind H2D: %v", c3.At)
	}
	_ = clock
}

// TestConcurrentDMASerialises issues 4 KiB copies in both directions from
// several goroutines at one virtual instant. Each direction's engine is
// serial, so its completions must be exactly 1, 2, …, n transfer times:
// a submission that escaped the device lock would lose an update (a
// repeated completion) or, under -race, be reported.
func TestConcurrentDMASerialises(t *testing.T) {
	const lanes, copies, n = 4, 300, 4096
	d, clock := testDevice(t)
	p, err := d.Malloc(2 * lanes * n)
	if err != nil {
		t.Fatal(err)
	}
	t0 := clock.Now() // the copies are asynchronous: every one is issued at t0
	done := make([][2][]sim.Completion, lanes)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			buf := make([]byte, n)
			dev := p + mem.Addr(2*l*n)
			for i := 0; i < copies; i++ {
				done[l][0] = append(done[l][0], d.MemcpyH2DAsync(dev, buf))
				done[l][1] = append(done[l][1], d.MemcpyD2HAsync(buf, dev+n))
			}
		}(l)
	}
	wg.Wait()
	per := [2]sim.Time{d.cfg.H2D.TransferTime(n), d.cfg.D2H.TransferTime(n)}
	for dir, name := range []string{"H2D", "D2H"} {
		seen := make(map[sim.Time]bool)
		for l := range done {
			for _, c := range done[l][dir] {
				if k := c.At - t0; k%per[dir] != 0 || k <= 0 || k > lanes*copies*per[dir] || seen[c.At] {
					t.Fatalf("%s completion at %v: not a fresh slot of the serial engine (%v per copy)", name, c.At, per[dir])
				}
				seen[c.At] = true
			}
		}
	}
	if got, want := d.Pending().At, t0+lanes*copies*max(per[0], per[1]); got != want {
		t.Fatalf("last completion %v, want %v", got, want)
	}
}

func TestKernelLaunchExecutesAndCharges(t *testing.T) {
	d, clock := testDevice(t)
	p, _ := d.Malloc(16)
	d.Register(&Kernel{
		Name: "store42",
		Run: func(dev *mem.Space, args []uint64) {
			dev.SetUint32(mem.Addr(args[0]), 42)
		},
		Cost: FixedCost(1e6, 0), // 1 MFLOP on a 100 GFLOPS device = 10us
	})
	done, err := d.Launch("store42", uint64(p))
	if err != nil {
		t.Fatal(err)
	}
	// Kernel effects visible in device memory immediately (simulation is
	// sequential), but virtual completion is in the future.
	if v := d.Memory().Uint32(p); v != 42 {
		t.Fatalf("kernel did not run: %d", v)
	}
	if done.At <= clock.Now() {
		t.Fatalf("kernel completion %v not after launch time %v", done.At, clock.Now())
	}
	stall := d.Synchronize()
	if stall <= 0 {
		t.Fatal("synchronize did not stall")
	}
	if st := d.Stats(); st.Launches != 1 || st.KernelTime < 9*sim.Microsecond {
		t.Fatalf("stats %+v", st)
	}
}

func TestLaunchUnknownKernel(t *testing.T) {
	d, _ := testDevice(t)
	if _, err := d.Launch("missing"); err == nil {
		t.Fatal("launch of unknown kernel succeeded")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	d, _ := testDevice(t)
	k := &Kernel{Name: "k", Run: func(*mem.Space, []uint64) {}}
	d.Register(k)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	d.Register(&Kernel{Name: "k", Run: func(*mem.Space, []uint64) {}})
}

func TestKernelWaitsForPriorDMA(t *testing.T) {
	// Default-stream semantics: a kernel launched after an async H2D copy
	// must not begin until the copy completes.
	d, _ := testDevice(t)
	p, _ := d.Malloc(1 << 20)
	copyDone := d.MemcpyH2DAsync(p, make([]byte, 1<<20))
	d.Register(&Kernel{Name: "nop", Run: func(*mem.Space, []uint64) {}})
	kernDone, err := d.Launch("nop")
	if err != nil {
		t.Fatal(err)
	}
	if kernDone.At < copyDone.At {
		t.Fatalf("kernel completed at %v before DMA at %v", kernDone.At, copyDone.At)
	}
}

func TestD2HAfterKernelSeesResults(t *testing.T) {
	d, _ := testDevice(t)
	p, _ := d.Malloc(4)
	d.Register(&Kernel{
		Name: "inc",
		Run: func(dev *mem.Space, args []uint64) {
			a := mem.Addr(args[0])
			dev.SetUint32(a, dev.Uint32(a)+1)
		},
	})
	d.MemcpyH2D(p, []byte{7, 0, 0, 0})
	if _, err := d.Launch("inc", uint64(p)); err != nil {
		t.Fatal(err)
	}
	d.Synchronize()
	out := make([]byte, 4)
	d.MemcpyD2H(out, p)
	if out[0] != 8 {
		t.Fatalf("read back %d, want 8", out[0])
	}
}

func TestMemset(t *testing.T) {
	d, _ := testDevice(t)
	p, _ := d.Malloc(128)
	d.Memset(p, 0x5a, 128)
	d.Synchronize()
	buf := make([]byte, 128)
	d.MemcpyD2H(buf, p)
	for i, b := range buf {
		if b != 0x5a {
			t.Fatalf("byte %d = %#x after memset", i, b)
		}
	}
}

func TestRooflineCost(t *testing.T) {
	d, _ := testDevice(t)
	computeBound := &Kernel{Name: "cb", Run: func(*mem.Space, []uint64) {},
		Cost: FixedCost(100e9, 0)} // 100 GFLOP at 100 GFLOPS = 1s
	memBound := &Kernel{Name: "mb", Run: func(*mem.Space, []uint64) {},
		Cost: FixedCost(0, 100e9)} // 100 GB at 100 GB/s = 1s
	d.Register(computeBound)
	d.Register(memBound)
	c1, _ := d.Launch("cb")
	base := c1.At
	c2, _ := d.Launch("mb")
	if got := c2.At - base; got < 900*sim.Millisecond || got > 1100*sim.Millisecond {
		t.Fatalf("memory-bound kernel took %v, want ~1s", got)
	}
	if base < 900*sim.Millisecond {
		t.Fatalf("compute-bound kernel took %v, want ~1s", base)
	}
}

func TestDefaultKernelCost(t *testing.T) {
	d, _ := testDevice(t)
	d.Register(&Kernel{Name: "k", Run: func(*mem.Space, []uint64) {}})
	start := d.Pending().At
	done, _ := d.Launch("k")
	if done.At-start < 5*sim.Microsecond {
		t.Fatalf("nominal kernel cost too small: %v", done.At-start)
	}
}

func TestOutOfDeviceMemory(t *testing.T) {
	d, _ := testDevice(t)
	if _, err := d.Malloc(1 << 30); err == nil {
		t.Fatal("oversized malloc succeeded")
	}
}

func TestDeviceVirtualMemory(t *testing.T) {
	clock := sim.NewClock()
	d := New(Config{
		Name: "vm", MemBase: 0x1000_0000, MemSize: 1 << 20, AllocAlign: 4096,
		GFLOPS: 100, MemLink: interconnect.G280Memory(),
		H2D: interconnect.PCIe2x16H2D(), D2H: interconnect.PCIe2x16D2H(),
		VirtualMemory: true,
	}, clock)
	if !d.HasVirtualMemory() {
		t.Fatal("VM not enabled")
	}
	phys, err := d.Malloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	const va = mem.Addr(0x7f00_0000_0000)
	if err := d.MapVA(va, phys, 8192); err != nil {
		t.Fatal(err)
	}
	if err := d.MapVA(va+4096, phys, 8192); err == nil {
		t.Fatal("overlapping VA mapping accepted")
	}
	d.MemcpyH2D(va, []byte{1, 2, 3})
	out := make([]byte, 3)
	d.MemcpyD2H(out, phys) // physical alias
	if out[0] != 1 || out[2] != 3 {
		t.Fatalf("VA write not visible at phys: %v", out)
	}
	if d.VAMappings() != 1 {
		t.Fatalf("mappings = %d", d.VAMappings())
	}
	back, err := d.UnmapVA(va)
	if err != nil || back != phys {
		t.Fatalf("UnmapVA = %#x, %v", uint64(back), err)
	}
	if _, err := d.UnmapVA(va); err == nil {
		t.Fatal("double unmap accepted")
	}
}

func TestDeviceWithoutVMRejectsMapVA(t *testing.T) {
	d, _ := testDevice(t)
	if err := d.MapVA(0x1000, 0x2000, 4096); err == nil {
		t.Fatal("MapVA on non-VM device accepted")
	}
	if _, err := d.UnmapVA(0x1000); err == nil {
		t.Fatal("UnmapVA on non-VM device accepted")
	}
	if d.HasVirtualMemory() || d.VAMappings() != 0 {
		t.Fatal("non-VM device reports VM state")
	}
}

// closedDevice returns a device that held data and was then closed twice,
// and the address of its one allocation.
func closedDevice(t *testing.T) (*Device, mem.Addr) {
	t.Helper()
	d, _ := testDevice(t)
	d.Register(&Kernel{Name: "touch", Run: func(dev *mem.Space, args []uint64) { dev.SetUint32(mem.Addr(args[0]), 1) }})
	p, err := d.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	d.MemcpyH2D(p, []byte{1, 2, 3, 4})
	d.Close()
	d.Close()
	return d, p
}

// TestUseAfterClose: a closed device fails the way a lost one does, and
// the entry points that cannot return an error take the machine check
// naming the device's memory, not a memory fault.
func TestUseAfterClose(t *testing.T) {
	d, p := closedDevice(t)
	if !d.Lost() {
		t.Fatal("closed device does not report itself lost")
	}
	buf := make([]byte, 4)
	if _, err := d.TryMemcpyH2DAsync(p, buf, PageMask{}); !errors.Is(err, fault.ErrDeviceLost) {
		t.Fatalf("TryMemcpyH2DAsync on a closed device: %v, want ErrDeviceLost", err)
	}
	if _, err := d.TryMemcpyD2HAsync(buf, p, int64(len(buf))); !errors.Is(err, fault.ErrDeviceLost) {
		t.Fatalf("TryMemcpyD2HAsync on a closed device: %v, want ErrDeviceLost", err)
	}
	if _, err := d.Launch("touch", uint64(p)); !errors.Is(err, fault.ErrDeviceLost) {
		t.Fatalf("Launch on a closed device: %v, want ErrDeviceLost", err)
	}
	for name, access := range map[string]func(*Device, mem.Addr){
		"MemcpyH2D": func(d *Device, p mem.Addr) { d.MemcpyH2D(p, buf) },
		"MemcpyD2H": func(d *Device, p mem.Addr) { d.MemcpyD2H(buf, p) },
		"Memset":    func(d *Device, p mem.Addr) { d.Memset(p, 0, 4) },
		"ReadBytes": func(d *Device, p mem.Addr) { d.ReadBytes(p, buf) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "outside space testgpu GDDR") {
					t.Fatalf("%s on a closed device: panic %q, want the machine check naming its memory", name, msg)
				}
			}()
			access(closedDevice(t)) // a fresh one: the machine check leaves the device lock held
		}()
	}
}

// TestDMAFaultChargesDelayAndLink: the device decides a DMA fault with its
// own injector under the copy's direction. A timed-out attempt occupies
// the DMA engine for its wire time plus the timeout's Delay, and the link
// it crossed counts the failure and names itself in the error.
func TestDMAFaultChargesDelayAndLink(t *testing.T) {
	d, clock := testDevice(t)
	const delay = 3 * sim.Millisecond
	h2d := fault.Nth(fault.OpDMAH2D, 1, fault.KindTimeout)
	d2h := fault.Nth(fault.OpDMAD2H, 1, fault.KindTimeout)
	h2d.Delay, d2h.Delay = delay, delay
	d.SetFaultInjector(fault.NewInjector(1, clock, h2d, d2h))
	p, err := d.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for _, c := range []struct {
		link *interconnect.Link
		try  func() (sim.Completion, error)
	}{
		{d.Config().H2D, func() (sim.Completion, error) { return d.TryMemcpyH2DAsync(p, buf, PageMask{}) }},
		{d.Config().D2H, func() (sim.Completion, error) { return d.TryMemcpyD2HAsync(buf, p, int64(len(buf))) }},
	} {
		faults := metrics.Default().Counter(metrics.Label("link_faults_total", "link", c.link.Name))
		before := faults.Value()
		t0 := clock.Now()
		failed, err := c.try()
		if !errors.Is(err, fault.ErrInjected) || !strings.Contains(err.Error(), "interconnect "+c.link.Name+": ") {
			t.Fatalf("%s: first copy: %v, want an injected fault naming the link", c.link.Name, err)
		}
		failed.Wait(clock)
		t1 := clock.Now()
		ok, err := c.try()
		if err != nil {
			t.Fatalf("%s: second copy: %v", c.link.Name, err)
		}
		ok.Wait(clock)
		if wire := ok.At - t1; failed.At-t0 != wire+delay {
			t.Fatalf("%s: failed attempt occupied the engine %v, want wire %v + delay %v", c.link.Name, failed.At-t0, wire, delay)
		}
		if got := faults.Value() - before; got != 1 {
			t.Fatalf("%s: link_faults_total grew by %d, want 1", c.link.Name, got)
		}
	}
	if st := d.Stats(); st.DMAFaults != 2 || d.Lost() {
		t.Fatalf("DMAFaults=%d lost=%v, want 2 and false", st.DMAFaults, d.Lost())
	}
}
