package gmac

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/machine"
)

func newMulti(t *testing.T, vm bool) *MultiContext {
	t.Helper()
	m := machine.DualGPUTestbed(vm)
	mc, err := NewMultiContext(m, Config{Protocol: RollingUpdate, BlockSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	mc.Register(func() *Kernel {
		return &Kernel{
			Name: "scale",
			Run: func(dev *DeviceMemory, args []uint64) {
				p, n := Ptr(args[0]), int64(args[1])
				f := math.Float32frombits(uint32(args[2]))
				for i := int64(0); i < n; i++ {
					dev.SetFloat32(p+Ptr(i*4), f*dev.Float32(p+Ptr(i*4)))
				}
			},
			Cost: func(args []uint64) (float64, int64) {
				n := int64(args[1])
				return float64(n), 8 * n
			},
		}
	})
	return mc
}

func TestMultiContextPlacementAndRouting(t *testing.T) {
	mc := newMulti(t, false)
	if mc.Devices() != 2 {
		t.Fatalf("devices = %d", mc.Devices())
	}
	// Round-robin placement alternates devices.
	a, err := mc.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mc.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Owner(a) == mc.Owner(b) {
		t.Fatalf("round-robin placed both objects on device %d", mc.Owner(a))
	}
	// Device 0's object is identity-mapped; device 1's window overlaps, so
	// it fell back to SafeAlloc.
	if !mc.Identity(a) {
		t.Fatal("first object should be identity-mapped")
	}
	if mc.Identity(b) {
		t.Fatal("second object should have required SafeAlloc (overlapping windows)")
	}

	// Write, compute, read on both — calls are routed by data placement
	// and safe pointers are translated automatically.
	const n = 1024
	init := make([]byte, n*4)
	for i := 0; i < n; i++ {
		v := math.Float32bits(2)
		init[i*4] = byte(v)
		init[i*4+1] = byte(v >> 8)
		init[i*4+2] = byte(v >> 16)
		init[i*4+3] = byte(v >> 24)
	}
	for _, p := range []Ptr{a, b} {
		if err := mc.HostWrite(p, init); err != nil {
			t.Fatal(err)
		}
		if err := mc.Call("scale", []uint64{uint64(p), n, uint64(math.Float32bits(3))}); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 4)
		if err := mc.HostRead(p, got); err != nil {
			t.Fatal(err)
		}
		v := math.Float32frombits(uint32(got[0]) | uint32(got[1])<<8 | uint32(got[2])<<16 | uint32(got[3])<<24)
		if v != 6 {
			t.Fatalf("object on device %d: got %v, want 6", mc.Owner(p), v)
		}
	}
	// Kernels ran on distinct devices.
	if mc.Manager(0).Device().Stats().Launches == 0 || mc.Manager(1).Device().Stats().Launches == 0 {
		t.Fatal("calls were not routed to both devices")
	}
	st := mc.Stats()
	if st.Allocs != 2 || st.Invokes != 2 {
		t.Fatalf("aggregate stats: %+v", st)
	}
	for _, p := range []Ptr{a, b} {
		if err := mc.Free(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMultiContextVirtualMemoryRemovesConflicts(t *testing.T) {
	mc := newMulti(t, true)
	for i := 0; i < 6; i++ {
		p, err := mc.Alloc(512 << 10)
		if err != nil {
			t.Fatal(err)
		}
		if !mc.Identity(p) {
			t.Fatalf("allocation %d not identity-mapped despite device MMUs", i)
		}
	}
}

func TestMultiContextCrossDeviceCallRejected(t *testing.T) {
	mc := newMulti(t, true)
	a, _ := mc.Alloc(4096, OnDevice(0))
	b, _ := mc.Alloc(4096, OnDevice(1))
	if err := mc.Call("scale", []uint64{uint64(a), uint64(b), 0}); err == nil {
		t.Fatal("cross-device kernel call accepted")
	}
	if err := mc.Call("scale", []uint64{7, 8}); err == nil {
		t.Fatal("call with no shared argument accepted")
	}
}

func TestMultiContextFaultDispatch(t *testing.T) {
	// Faults on either device's objects resolve through the right manager.
	mc := newMulti(t, true)
	a, _ := mc.Alloc(64<<10, OnDevice(0))
	b, _ := mc.Alloc(64<<10, OnDevice(1))
	if err := mc.HostWrite(a, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := mc.HostWrite(b, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if mc.Manager(0).Stats().WriteFaults != 1 || mc.Manager(1).Stats().WriteFaults != 1 {
		t.Fatalf("fault dispatch wrong: %d/%d",
			mc.Manager(0).Stats().WriteFaults, mc.Manager(1).Stats().WriteFaults)
	}
}

func TestMultiContextErrors(t *testing.T) {
	mc := newMulti(t, false)
	if _, err := mc.Alloc(4096, OnDevice(5)); err == nil {
		t.Fatal("bad device index accepted")
	}
	if err := mc.Free(0x1); err == nil {
		t.Fatal("free of unshared accepted")
	}
	if err := mc.HostRead(0x1, make([]byte, 1)); err == nil {
		t.Fatal("read of unshared accepted")
	}
	if err := mc.HostWrite(0x1, []byte{1}); err == nil {
		t.Fatal("write of unshared accepted")
	}
	if _, err := mc.Safe(0x1); err == nil {
		t.Fatal("safe of unshared accepted")
	}
	if mc.Owner(0x1) != -1 || mc.Identity(0x1) {
		t.Fatal("unshared pointer misclassified")
	}
}

// asyncPair builds a dual-GPU session with one 2 MiB object per device and
// an asynchronous kernel in flight on each. Device 1's kernel scales twice
// as many floats, so it ends later than device 0's.
func asyncPair(t *testing.T) *MultiContext {
	t.Helper()
	mc := newMulti(t, true)
	var ptrs [2]Ptr
	for dev := range ptrs {
		p, err := mc.Alloc(2<<20, OnDevice(dev))
		if err != nil {
			t.Fatal(err)
		}
		ptrs[dev] = p
	}
	for dev, n := range []uint64{256 << 10, 512 << 10} {
		if err := mc.Call("scale", []uint64{uint64(ptrs[dev]), n, uint64(math.Float32bits(2))}, Async()); err != nil {
			t.Fatal(err)
		}
	}
	return mc
}

// inLane runs f on its own goroutine inside a lane of c seeded at c's
// current time, as one host thread among several, and waits for it.
func inLane(c *sim.Clock, f func()) {
	_ = c.Parallel(1, func(int) error { f(); return nil }) // f reports its own failures
}

// TestMultiContextSyncVirtualTime pins the virtual time of a Sync over two
// devices whose kernels end at different times: the devices are waited
// for in parallel, so the caller ends at the slower device's end, not at
// the sum of both waits. Each device's wait is measured alone on a fresh
// session first; the combined Sync is then pinned exactly, on the shared
// timeline and again from inside a lane.
func TestMultiContextSyncVirtualTime(t *testing.T) {
	alone := func(dev int) sim.Time {
		mc := asyncPair(t)
		base := mc.m.Clock.Now()
		if err := mc.Manager(dev).Sync(); err != nil {
			t.Fatal(err)
		}
		return mc.m.Clock.Now() - base
	}
	fast, slow := alone(0), alone(1)
	const want sim.Time = 27_703
	if slow != want || fast >= slow {
		t.Fatalf("device waits alone = %d ns and %d ns, want device 1's (%d ns) the longer", int64(fast), int64(slow), int64(want))
	}

	mc := asyncPair(t)
	base := mc.m.Clock.Now()
	if err := mc.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := mc.m.Clock.Now() - base; got != want {
		t.Errorf("Sync took %d ns, want the slower device's %d ns (the sum is %d ns)", int64(got), int64(want), int64(fast+slow))
	}

	mc = asyncPair(t)
	c := mc.m.Clock
	base = c.Now()
	var onLane sim.Time
	inLane(c, func() {
		if err := mc.Sync(); err != nil {
			t.Error(err)
		}
		onLane = c.Now() - base
	})
	if got := c.Now() - base; onLane != want || got != want {
		t.Errorf("Sync inside a lane took %d ns on the lane and %d ns after it, want %d ns", int64(onLane), int64(got), int64(want))
	}
}
