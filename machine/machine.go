// Package machine assembles the simulated heterogeneous system of the
// paper's Figure 1: a general-purpose CPU with its system memory and MMU,
// one or more accelerators with on-board memories behind a PCIe link, and
// a disk. All components share one virtual clock and one execution-time
// breakdown, so experiments reproduce the paper's timing figures
// deterministically on any host.
package machine

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/hostmmu"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/osabs"
	"repro/internal/sim"
)

// Config describes a machine to build.
type Config struct {
	// CPUName labels the host processor in reports.
	CPUName string
	// CPUGFLOPS is the host's effective single-thread compute throughput,
	// used to cost the control-intensive CPU phases of workloads.
	CPUGFLOPS float64
	// CPUCopyBps is the host's streaming memory bandwidth (initialising
	// and scanning buffers). Together with the PCIe link parameters it
	// determines where eager transfers stop overlapping CPU work
	// (the Figure 11 64KB anomaly).
	CPUCopyBps float64
	// PageSize is the MMU page size.
	PageSize int64
	// SignalCost is the page-fault/signal delivery cost.
	SignalCost sim.Time
	// VALow/VAHigh bound the window used by mmap-anywhere allocations.
	VALow, VAHigh mem.Addr
	// Accelerators lists the attached devices.
	Accelerators []accel.Config
	// Disk models the storage the Parboil inputs and outputs live on.
	Disk *interconnect.Link
	// PeerDMA lets I/O devices transfer directly to and from accelerator
	// memory (the architectural support §7 of the paper calls for),
	// removing the intermediate system-memory staging of §4.4.
	PeerDMA bool
}

// Machine is a fully wired simulated system.
type Machine struct {
	cfg Config

	// Clock is the virtual CPU timeline shared by every component.
	Clock *sim.Clock
	// Breakdown accumulates the Figure 10 execution-time categories.
	Breakdown *sim.Breakdown
	// MMU is the host memory-protection unit.
	MMU *hostmmu.MMU
	// VA is the host virtual address space.
	VA *mem.VASpace
	// Devices are the attached accelerators.
	Devices []*accel.Device
	// FS is the simulated filesystem.
	FS *osabs.FS
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if len(cfg.Accelerators) == 0 {
		return nil, fmt.Errorf("machine: at least one accelerator required")
	}
	if cfg.CPUGFLOPS <= 0 || cfg.CPUCopyBps <= 0 {
		return nil, fmt.Errorf("machine: CPU throughput parameters must be positive")
	}
	clock := sim.NewClock()
	bd := sim.NewBreakdown()
	m := &Machine{
		cfg:       cfg,
		Clock:     clock,
		Breakdown: bd,
		MMU:       hostmmu.New(hostmmu.Config{PageSize: cfg.PageSize, SignalCost: cfg.SignalCost}, clock, bd),
		VA:        mem.NewVASpace(cfg.VALow, cfg.VAHigh),
		FS:        osabs.NewFS(cfg.Disk, clock, bd),
	}
	for _, ac := range cfg.Accelerators {
		m.Devices = append(m.Devices, accel.New(ac, clock))
	}
	return m, nil
}

// Close powers the machine off, giving its accelerators' on-board memories
// back (accel.Device.Close). Results already read from the machine — the
// clock, the breakdown, device statistics — stay readable. Close is
// idempotent; a machine dropped without it is cleaned up by a finalizer,
// later and only when the garbage collector gets to it.
func (m *Machine) Close() {
	for _, d := range m.Devices {
		d.Close()
	}
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Device returns the primary accelerator.
func (m *Machine) Device() *accel.Device { return m.Devices[0] }

// CPUCompute charges compute-bound CPU work of the given floating-point
// operation count to the clock and the CPU breakdown slice.
func (m *Machine) CPUCompute(flops float64) {
	if flops <= 0 {
		return
	}
	d := sim.Time(flops / (m.cfg.CPUGFLOPS * 1e9) * 1e9)
	m.Clock.Advance(d)
	m.Breakdown.Add(sim.CatCPU, d)
}

// CPUTouch charges memory-bound CPU work (initialising or scanning the
// given number of bytes) to the clock and the CPU breakdown slice.
func (m *Machine) CPUTouch(bytes int64) {
	if bytes <= 0 {
		return
	}
	d := sim.Time(float64(bytes) / m.cfg.CPUCopyBps * 1e9)
	m.Clock.Advance(d)
	m.Breakdown.Add(sim.CatCPU, d)
}

// Elapsed returns the virtual time since machine construction.
func (m *Machine) Elapsed() sim.Time { return m.Clock.Now() }

// PaperTestbedConfig returns the configuration of the evaluation platform
// in Section 5: two dual-core 3 GHz Opteron 2222s with 8 GB of RAM and an
// NVIDIA G280 with 1 GB of device memory on PCIe 2.0 x16.
func PaperTestbedConfig() Config {
	return Config{
		CPUName:    "2x AMD Opteron 2222 (3 GHz)",
		CPUGFLOPS:  3.0,
		CPUCopyBps: 9.6 * interconnect.GB,
		PageSize:   4096,
		SignalCost: 1500 * sim.Nanosecond,
		VALow:      0x7f00_0000_0000,
		VAHigh:     0x7f80_0000_0000,
		Accelerators: []accel.Config{{
			Name:           "NVIDIA G280",
			MemBase:        0x2_0000_0000,
			MemSize:        1 << 30, // 1 GB
			AllocAlign:     4096,
			GFLOPS:         933, // single-precision peak
			MemLink:        interconnect.G280Memory(),
			H2D:            interconnect.PCIe2x16H2D(),
			D2H:            interconnect.PCIe2x16D2H(),
			LaunchOverhead: 8 * sim.Microsecond,
			AllocOverhead:  40 * sim.Microsecond,
		}},
		Disk: interconnect.SATADisk(),
	}
}

// PaperTestbed builds the Section 5 evaluation platform.
func PaperTestbed() *Machine {
	m, err := New(PaperTestbedConfig())
	if err != nil {
		panic(err) // the preset is statically valid
	}
	return m
}

// DualGPUTestbedConfig returns a two-accelerator testbed whose devices
// report overlapping physical windows, exactly as two cudaMalloc heaps do —
// the §4.2 multi-accelerator conflict scenario. Set vm to give both
// devices an MMU (which makes the conflict disappear).
func DualGPUTestbedConfig(vm bool) Config {
	cfg := PaperTestbedConfig()
	second := cfg.Accelerators[0]
	second.Name = "NVIDIA G280 #2"
	second.VirtualMemory = vm
	cfg.Accelerators[0].VirtualMemory = vm
	cfg.Accelerators = append(cfg.Accelerators, second)
	// Keep per-device memory small so tests run quickly.
	for i := range cfg.Accelerators {
		cfg.Accelerators[i].MemSize = 64 << 20
	}
	return cfg
}

// DualGPUTestbed builds the two-accelerator testbed.
func DualGPUTestbed(vm bool) *Machine {
	m, err := New(DualGPUTestbedConfig(vm))
	if err != nil {
		panic(err)
	}
	return m
}

// SmallTestbed builds a machine with a small accelerator memory, for unit
// tests that want fast runs and easy exhaustion scenarios.
func SmallTestbed() *Machine {
	cfg := PaperTestbedConfig()
	cfg.Accelerators[0].MemSize = 64 << 20
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}
