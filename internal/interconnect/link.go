// Package interconnect models the data links of the reference architecture
// in Figure 1 of the paper: the PCIe bus between system memory and the
// accelerator, the coherent fabrics (HyperTransport, QPI) between CPUs and
// system memory, the on-board GDDR memory of the accelerator, and the disk
// used by I/O-heavy workloads.
//
// A Link charges `latency + bytes/peak` per transfer, which yields the
// size-dependent effective bandwidth curve the paper measures in Figure 11:
// small transfers are latency-bound, large transfers approach peak.
package interconnect

import (
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Link is a unidirectional data link with fixed per-transfer latency and
// peak bandwidth.
type Link struct {
	// Name identifies the link in reports ("PCIe 2.0 x16 H2D", ...).
	Name string
	// Latency is the fixed per-transfer setup cost (DMA descriptor setup,
	// doorbell, completion interrupt).
	Latency sim.Time
	// PeakBps is the peak bandwidth in bytes per second.
	PeakBps float64

	// Per-link transfer accounting, registered lazily on first use so
	// plain struct-literal links keep working.
	instrument         sync.Once
	nTransfers, nBytes *metrics.Counter
	nFaults            *metrics.Counter
}

// TransferTime returns the virtual time needed to move n bytes across the
// link, and books the transfer against the link's metrics. Zero-byte
// transfers still pay the setup latency.
func (l *Link) TransferTime(n int64) sim.Time {
	l.instrument.Do(func() {
		r := metrics.Default()
		l.nTransfers = r.Counter(metrics.Label("link_transfers_total", "link", l.Name))
		l.nBytes = r.Counter(metrics.Label("link_bytes_total", "link", l.Name))
		l.nFaults = r.Counter(metrics.Label("link_faults_total", "link", l.Name))
	})
	l.nTransfers.Inc()
	l.nBytes.Add(n)
	return l.transferTime(n)
}

// Failed books a failed attempt of a transfer already timed by
// TransferTime against the link's fault counter and names the link in
// err. The link never decides a fault: the device that owns the DMA
// engine asks its own injector and reports the outcome here.
func (l *Link) Failed(err error) error {
	l.nFaults.Inc()
	return fmt.Errorf("interconnect %s: %w", l.Name, err)
}

// transferTime is the pure cost model, shared with the analytic helpers
// (which must not count as traffic).
func (l *Link) transferTime(n int64) sim.Time {
	if n < 0 {
		panic(fmt.Sprintf("interconnect: negative transfer size %d on %s", n, l.Name))
	}
	wire := sim.Time(float64(n) / l.PeakBps * 1e9)
	return l.Latency + wire
}

// EffectiveBps returns the effective bandwidth (bytes/second) achieved by a
// single transfer of n bytes, i.e. n divided by TransferTime. This is the
// quantity plotted as boxes in Figure 11.
func (l *Link) EffectiveBps(n int64) float64 {
	t := l.transferTime(n)
	if t == 0 {
		return l.PeakBps
	}
	return float64(n) / t.Seconds()
}

// MaxIPC returns the highest instructions-per-cycle rate a kernel with the
// given memory intensity (bytes accessed per instruction) can sustain over
// this link at the given clock frequency. This is the analytic model behind
// Figure 2 of the paper.
func (l *Link) MaxIPC(bytesPerInstr, clockHz float64) float64 {
	if bytesPerInstr <= 0 || clockHz <= 0 {
		panic("interconnect: MaxIPC requires positive bytesPerInstr and clockHz")
	}
	return l.PeakBps / (bytesPerInstr * clockHz)
}

// RequiredBps returns the bandwidth demanded by a kernel executing at the
// given IPC and clock frequency with the given memory intensity.
func RequiredBps(ipc, clockHz, bytesPerInstr float64) float64 {
	return ipc * clockHz * bytesPerInstr
}

const (
	// MB and GB are binary byte multiples used throughout the models.
	MB = 1 << 20
	GB = 1 << 30
)

// The presets below approximate the hardware of the paper's testbed
// (Section 5): a PCIe 2.0 x16 link to an NVIDIA G280 with on-board GDDR3,
// AMD HyperTransport and Intel QPI as the CPU fabrics of Figure 2, and a
// SATA-class disk for the I/O model.

// PCIe2x16H2D returns the host-to-device direction of a PCIe 2.0 x16 link.
func PCIe2x16H2D() *Link {
	return &Link{Name: "PCIe 2.0 x16 H2D", Latency: 12 * sim.Microsecond, PeakBps: 6.0 * GB}
}

// PCIe2x16D2H returns the device-to-host direction of a PCIe 2.0 x16 link.
// Device-to-host DMA is slightly slower on the paper's testbed (Figure 11
// plots distinct curves for the two directions).
func PCIe2x16D2H() *Link {
	return &Link{Name: "PCIe 2.0 x16 D2H", Latency: 14 * sim.Microsecond, PeakBps: 5.2 * GB}
}

// HyperTransport returns an AMD HyperTransport fabric link (Figure 2).
func HyperTransport() *Link {
	return &Link{Name: "HyperTransport", Latency: 200 * sim.Nanosecond, PeakBps: 10.4 * GB}
}

// QPI returns an Intel QuickPath fabric link (Figure 2).
func QPI() *Link {
	return &Link{Name: "QPI", Latency: 150 * sim.Nanosecond, PeakBps: 12.8 * GB}
}

// GTX295Memory returns the on-board GDDR3 memory interface of the NVIDIA
// GTX295 referenced by Figure 2 (~112 GB/s per GPU).
func GTX295Memory() *Link {
	return &Link{Name: "NVIDIA GTX295 Memory", Latency: 400 * sim.Nanosecond, PeakBps: 112 * GB}
}

// G280Memory returns the on-board GDDR3 interface of the G280 card used in
// the evaluation (~141 GB/s peak, 512-bit bus).
func G280Memory() *Link {
	return &Link{Name: "NVIDIA G280 Memory", Latency: 400 * sim.Nanosecond, PeakBps: 141 * GB}
}

// SATADisk returns a 2009-era SATA disk: the source/sink of the Parboil
// input and output files.
func SATADisk() *Link {
	return &Link{Name: "SATA disk", Latency: 4 * sim.Millisecond, PeakBps: 90 * MB}
}
