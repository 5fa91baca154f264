package machine

import (
	"errors"
	"testing"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/sim"
)

func TestPaperTestbed(t *testing.T) {
	m := PaperTestbed()
	if m.Device() == nil || m.FS == nil || m.MMU == nil || m.VA == nil {
		t.Fatal("testbed incompletely wired")
	}
	if m.Device().Config().MemSize != 1<<30 {
		t.Fatalf("G280 memory %d, want 1GB", m.Device().Config().MemSize)
	}
	if m.Elapsed() != 0 {
		t.Fatal("fresh machine has nonzero elapsed time")
	}
}

func TestClose(t *testing.T) {
	m := DualGPUTestbed(false)
	m.CPUCompute(3e9)
	m.Close()
	m.Close() // idempotent
	for _, d := range m.Devices {
		if !d.Lost() || d.Memory().Size() != 0 {
			t.Fatalf("%s still powered after Close: lost=%v, %d bytes", d.Name(), d.Lost(), d.Memory().Size())
		}
	}
	if m.Elapsed() == 0 || m.Breakdown.Get(sim.CatCPU) != m.Elapsed() {
		t.Fatal("results of a closed machine are no longer readable")
	}
}

// TestFaultInjectorArmsOnlyItsDevice: the two devices of DualGPUTestbed
// share their PCIe Link values, so an injector armed on one device must
// not fault the other's DMAs.
func TestFaultInjectorArmsOnlyItsDevice(t *testing.T) {
	m := DualGPUTestbed(false)
	defer m.Close()
	d0, d1 := m.Devices[0], m.Devices[1]
	d1.SetFaultInjector(fault.NewInjector(1, m.Clock, fault.Nth(fault.OpDMAH2D, 1, fault.KindDeviceLost)))
	buf := make([]byte, 4096)
	for i, d := range m.Devices {
		p, err := d.Malloc(int64(len(buf)))
		if err != nil {
			t.Fatal(err)
		}
		_, err = d.TryMemcpyH2DAsync(p, buf, accel.PageMask{})
		if i == 1 {
			if !errors.Is(err, fault.ErrDeviceLost) {
				t.Fatalf("%s: first H2D copy: %v, want ErrDeviceLost", d.Name(), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: H2D copy faulted by the other device's injector: %v", d.Name(), err)
		}
	}
	if d0.Lost() || d0.Stats().DMAFaults != 0 {
		t.Fatalf("%s: lost=%v DMAFaults=%d after %s's fault, want false and 0",
			d0.Name(), d0.Lost(), d0.Stats().DMAFaults, d1.Name())
	}
	if !d1.Lost() || d1.Stats().DMAFaults != 1 {
		t.Fatalf("%s: lost=%v DMAFaults=%d, want true and 1", d1.Name(), d1.Lost(), d1.Stats().DMAFaults)
	}
}

func TestCPUCostModel(t *testing.T) {
	m := PaperTestbed()
	m.CPUCompute(3e9) // 3 GFLOP at 3 GFLOPS = 1s
	if got := m.Elapsed(); got < 990*sim.Millisecond || got > 1010*sim.Millisecond {
		t.Fatalf("3 GFLOP took %v, want ~1s", got)
	}
	if m.Breakdown.Get(sim.CatCPU) != m.Elapsed() {
		t.Fatal("CPU work not booked to breakdown")
	}
	before := m.Elapsed()
	m.CPUTouch(96 * (1 << 30) / 10) // 9.6 GiB at 9.6 GiB/s = ~1s
	d := m.Elapsed() - before
	if d < 990*sim.Millisecond || d > 1010*sim.Millisecond {
		t.Fatalf("9.6GiB touch took %v, want ~1s", d)
	}
	// No-ops.
	before = m.Elapsed()
	m.CPUCompute(0)
	m.CPUTouch(-5)
	if m.Elapsed() != before {
		t.Fatal("zero/negative work advanced the clock")
	}
}

func TestNewValidation(t *testing.T) {
	cfg := PaperTestbedConfig()
	cfg.Accelerators = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("machine without accelerators accepted")
	}
	cfg = PaperTestbedConfig()
	cfg.CPUGFLOPS = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("machine without CPU throughput accepted")
	}
}

func TestSmallTestbed(t *testing.T) {
	m := SmallTestbed()
	if m.Device().Config().MemSize != 64<<20 {
		t.Fatalf("small testbed memory %d", m.Device().Config().MemSize)
	}
	if got := m.Config().CPUName; got == "" {
		t.Fatal("config not retained")
	}
}
