package machine

import (
	"testing"

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
