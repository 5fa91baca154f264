package interconnect

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestTransferTimeLatencyPlusWire(t *testing.T) {
	l := &Link{Name: "test", Latency: 1000, PeakBps: 1e9} // 1 GB/s, 1us latency
	if got := l.TransferTime(0); got != 1000 {
		t.Fatalf("zero-byte transfer = %v, want latency 1000", got)
	}
	// 1e6 bytes at 1 GB/s = 1ms wire time.
	if got := l.TransferTime(1e6); got != 1000+sim.Millisecond {
		t.Fatalf("1MB transfer = %v, want %v", got, 1000+sim.Millisecond)
	}
}

func TestTransferTimeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	PCIe2x16H2D().TransferTime(-1)
}

func TestEffectiveBandwidthMonotone(t *testing.T) {
	// Property of the Figure 11 curve: effective bandwidth grows with
	// transfer size and never exceeds peak.
	l := PCIe2x16H2D()
	prev := 0.0
	for size := int64(4 << 10); size <= 32*MB; size *= 2 {
		eff := l.EffectiveBps(size)
		if eff < prev {
			t.Fatalf("effective bandwidth decreased at %d bytes: %v < %v", size, eff, prev)
		}
		if eff > l.PeakBps {
			t.Fatalf("effective bandwidth %v exceeds peak %v", eff, l.PeakBps)
		}
		prev = eff
	}
	// Large transfers should be close to peak (within 10%).
	if eff := l.EffectiveBps(512 * MB); eff < 0.9*l.PeakBps {
		t.Fatalf("512MB transfer achieves only %v of peak %v", eff, l.PeakBps)
	}
	// Small transfers are latency-bound: far below peak.
	if eff := l.EffectiveBps(4 << 10); eff > 0.2*l.PeakBps {
		t.Fatalf("4KB transfer achieves %v, expected latency-bound (<20%% of peak)", eff)
	}
}

func TestEffectiveBpsProperty(t *testing.T) {
	l := PCIe2x16D2H()
	f := func(raw uint32) bool {
		n := int64(raw)
		eff := l.EffectiveBps(n)
		return eff >= 0 && eff <= l.PeakBps+1 // +1 for float slack
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxIPCFigure2Shape(t *testing.T) {
	// Figure 2's qualitative claim: the IPC supportable over PCIe is far
	// below what the GPU's on-board memory supports, and the fabric links
	// sit in between.
	const clockHz = 800e6
	const bytesPerInstr = 0.2 // the paper's bt benchmark: IPC 50 on PCIe
	pcie := PCIe2x16H2D().MaxIPC(bytesPerInstr, clockHz)
	ht := HyperTransport().MaxIPC(bytesPerInstr, clockHz)
	qpi := QPI().MaxIPC(bytesPerInstr, clockHz)
	gddr := GTX295Memory().MaxIPC(bytesPerInstr, clockHz)
	if !(pcie < ht && ht < qpi && qpi < gddr) {
		t.Fatalf("IPC ordering violated: pcie=%v ht=%v qpi=%v gddr=%v", pcie, ht, qpi, gddr)
	}
	// bt supports IPC around 40 on PCIe (paper: "maximum achievable value
	// of IPC is 50 for bt"); accept the right order of magnitude.
	if pcie < 20 || pcie > 80 {
		t.Fatalf("bt IPC over PCIe = %v, want within [20,80]", pcie)
	}
}

func TestMaxIPCInverseOfRequiredBps(t *testing.T) {
	l := QPI()
	const clockHz = 800e6
	const bpi = 1.5
	ipc := l.MaxIPC(bpi, clockHz)
	if got := RequiredBps(ipc, clockHz, bpi); math.Abs(got-l.PeakBps) > 1 {
		t.Fatalf("RequiredBps(MaxIPC) = %v, want peak %v", got, l.PeakBps)
	}
}

func TestMaxIPCPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MaxIPC(0, 0) did not panic")
		}
	}()
	QPI().MaxIPC(0, 0)
}

func TestPresetsSane(t *testing.T) {
	links := []*Link{
		PCIe2x16H2D(), PCIe2x16D2H(), HyperTransport(), QPI(),
		GTX295Memory(), G280Memory(), SATADisk(),
	}
	seen := make(map[string]bool)
	for _, l := range links {
		if l.Name == "" {
			t.Fatal("preset with empty name")
		}
		if seen[l.Name] {
			t.Fatalf("duplicate preset name %q", l.Name)
		}
		seen[l.Name] = true
		if l.PeakBps <= 0 || l.Latency < 0 {
			t.Fatalf("%s: nonsensical parameters %+v", l.Name, l)
		}
	}
	// Relative ordering that the paper's Figure 2 depends on.
	if PCIe2x16H2D().PeakBps >= HyperTransport().PeakBps {
		t.Fatal("PCIe should be slower than HyperTransport")
	}
	if QPI().PeakBps >= G280Memory().PeakBps {
		t.Fatal("QPI should be slower than on-board GDDR")
	}
	if SATADisk().PeakBps >= PCIe2x16H2D().PeakBps {
		t.Fatal("disk should be slower than PCIe")
	}
}
