// Package accel simulates the accelerator of the reference architecture
// (Figure 1): a throughput-oriented device with its own on-board memory,
// reachable from the host only through DMA transfers over an interconnect
// link. Kernels are real Go functions registered per device; they execute
// against device memory (so results are genuine) while their virtual
// execution time comes from a calibrated roofline cost model (compute
// throughput vs on-board memory bandwidth).
//
// The device performs no coherence actions whatsoever — the asymmetry at
// the heart of ADSM. Everything here is driven by host-side calls.
package accel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitmap"
	"repro/internal/fault"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Config describes a device's hardware parameters.
type Config struct {
	Name string
	// MemBase/MemSize locate the device's physical memory window. GMAC
	// mirrors host mappings at these addresses, so the base should sit
	// away from typical host program sections.
	MemBase mem.Addr
	MemSize int64
	// AllocAlign is the allocation granularity of the on-board allocator
	// (cudaMalloc returns 256-byte aligned pointers on the paper's GPUs).
	AllocAlign int64
	// GFLOPS is the peak single-precision compute throughput.
	GFLOPS float64
	// MemLink models the on-board GDDR interface.
	MemLink *interconnect.Link
	// H2D and D2H model the two directions of the host interconnect.
	H2D, D2H *interconnect.Link
	// LaunchOverhead is the host-side cost of dispatching one kernel.
	LaunchOverhead sim.Time
	// AllocOverhead is the host-side cost of one device malloc/free.
	AllocOverhead sim.Time
	// VirtualMemory equips the device with an MMU translating host-chosen
	// virtual addresses (the architectural support §4.2 calls for).
	VirtualMemory bool
}

// Device is one simulated accelerator. Its host-facing entry points are
// safe for concurrent use — several host goroutines may issue DMAs and
// launches against one device, just as several CPU threads share one GPU
// through the driver. Kernel bodies execute serially per device (one
// compute engine): launches run one at a time under mu, though a body may
// spread its own work over the host's cores (the Parboil kernels do, with
// mem.Split). DMAs on distinct devices proceed fully in parallel.
type Device struct {
	cfg    Config
	clock  *sim.Clock
	memory *mem.Space
	alloc  *mem.Allocator
	pt     *pageTable
	met    devMetrics
	// mu guards kern, stats, pending and the three engines, which have no
	// lock of their own; kernel bodies run under it so concurrent launches
	// cannot race on device memory.
	mu     sync.Mutex
	dmaH2D *sim.Resource
	dmaD2H *sim.Resource
	engine *sim.Resource
	kern   map[string]*Kernel
	stats  Stats
	// pending tracks the last enqueued operation of the default stream so
	// kernels launch after in-flight DMAs and vice versa, matching CUDA's
	// default-stream ordering.
	pending sim.Completion
	// inj, when set, is consulted by the fault-aware entry points
	// (TryMemcpy*, Launch); it is the only place a DMA or launch of this
	// device can fail. The infallible Memcpy* methods never fault: the
	// CUDA-baseline workloads use them and model a programmer who ignores
	// errors.
	inj *fault.Injector
	// arms counts the injectors SetFaultInjector has installed, so a
	// caller can tell state it built before the current arming from state
	// it built since (Arms).
	arms uint64
	// lost flips once a KindDeviceLost fault fires; from then on every
	// fault-aware operation fails fast with fault.ErrDeviceLost.
	lost atomic.Bool
	// closed flips at Close, once the device memory is given back; a lost
	// device that is not closed still holds its bytes.
	closed atomic.Bool
}

// devMetrics caches the transfer latency/size histogram handles. Devices
// share the histograms (the registry aggregates by name), which is the
// global view Figure 11 plots.
type devMetrics struct {
	h2dNs, d2hNs       *metrics.Histogram
	h2dBytes, d2hBytes *metrics.Histogram
}

func newDevMetrics(r *metrics.Registry) devMetrics {
	return devMetrics{
		h2dNs:    r.Histogram("accel_h2d_latency_ns", metrics.LatencyBuckets),
		d2hNs:    r.Histogram("accel_d2h_latency_ns", metrics.LatencyBuckets),
		h2dBytes: r.Histogram("accel_h2d_bytes", metrics.SizeBuckets),
		d2hBytes: r.Histogram("accel_d2h_bytes", metrics.SizeBuckets),
	}
}

// Stats counts device activity.
type Stats struct {
	BytesH2D, BytesD2H   int64
	CopiesH2D, CopiesD2H int64
	Launches             int64
	Allocs, Frees        int64
	KernelTime           sim.Time
	// DMAFaults and LaunchFaults count injected failures observed by the
	// fault-aware entry points (zero outside chaos runs).
	DMAFaults, LaunchFaults int64
}

// New creates a device bound to the host virtual clock. Its on-board
// memory is demand-paged (mem.NewLazySpace): the owner should Close the
// device when done with it.
func New(cfg Config, clock *sim.Clock) *Device {
	if cfg.MemSize <= 0 {
		panic(fmt.Sprintf("accel: device %q has no memory", cfg.Name))
	}
	if cfg.AllocAlign == 0 {
		cfg.AllocAlign = 256
	}
	d := &Device{
		cfg:    cfg,
		clock:  clock,
		memory: mem.NewLazySpace(cfg.Name+" GDDR", cfg.MemBase, cfg.MemSize),
		alloc:  mem.NewAllocator(cfg.MemBase, cfg.MemSize, cfg.AllocAlign),
		dmaH2D: sim.NewResource(cfg.Name+" DMA H2D", clock),
		dmaD2H: sim.NewResource(cfg.Name+" DMA D2H", clock),
		engine: sim.NewResource(cfg.Name+" SMs", clock),
		kern:   make(map[string]*Kernel),
		met:    newDevMetrics(metrics.Default()),
	}
	if cfg.VirtualMemory {
		d.pt = &pageTable{}
		d.memory.SetTranslator(d.pt.translate)
	}
	return d
}

// Close powers the device off and gives its on-board memory back. From
// then on it behaves as a lost device: the fault-aware entry points fail
// with fault.ErrDeviceLost, and any other access to device memory is a
// machine check. Close is idempotent. Like closing a file that is still
// being written, calling it while another goroutine is inside the device
// is the caller's bug; it takes no lock, so that a deferred Close still
// lets a machine check raised under the device lock reach the top.
func (d *Device) Close() {
	d.lost.Store(true)
	d.closed.Store(true)
	d.memory.Close()
}

// Name returns the device name.
func (d *Device) Name() string { return d.cfg.Name }

// Config returns the device's hardware parameters.
func (d *Device) Config() Config { return d.cfg }

// Memory exposes the raw device memory space. Kernels and DMA use it; host
// application code must not (that is the point of the paper).
func (d *Device) Memory() *mem.Space { return d.memory }

// Stats returns a copy of the activity counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Malloc allocates device memory, charging the host-side overhead. The
// whole 2 MiB pages inside the allocation are backed by huge pages where
// the host offers them (mem.Space.AdviseHuge), as a device MMU maps large
// pages.
func (d *Device) Malloc(size int64) (mem.Addr, error) {
	d.clock.Advance(d.cfg.AllocOverhead)
	addr, err := d.alloc.Alloc(size)
	if err != nil {
		return 0, fmt.Errorf("accel %s: %w", d.cfg.Name, err)
	}
	d.memory.AdviseHuge(addr, size)
	d.mu.Lock()
	d.stats.Allocs++
	d.mu.Unlock()
	return addr, nil
}

// Free releases device memory.
func (d *Device) Free(addr mem.Addr) error {
	d.clock.Advance(d.cfg.AllocOverhead)
	if err := d.alloc.Free(addr); err != nil {
		return fmt.Errorf("accel %s: %w", d.cfg.Name, err)
	}
	d.mu.Lock()
	d.stats.Frees++
	d.mu.Unlock()
	return nil
}

// LiveAllocs returns the number of live device allocations.
func (d *Device) LiveAllocs() int { return d.alloc.Live() }

// SetFaultInjector arms the device with a fault injector (chaos tests,
// gmacbench -faults). Only the fault-aware entry points — TryMemcpy* and
// Launch — consult it; the interconnect links are pure cost models and
// may be shared with other devices. Install before the run starts.
func (d *Device) SetFaultInjector(in *fault.Injector) {
	d.inj = in
	if in != nil {
		d.arms++
	}
}

// Armed reports whether a fault injector is installed: whether a DMA or
// launch of this device can fail other than on a lost device.
func (d *Device) Armed() bool { return d.inj != nil }

// Arms returns how many injectors SetFaultInjector has installed so far.
// A caller that notes it when it relies on an unarmed device (the manager
// owing pages, core.Object.owed) can later tell whether an injector was
// armed since.
func (d *Device) Arms() uint64 { return d.arms }

// Lost reports whether the device has been declared lost by a permanent
// injected fault. Once lost, every fault-aware operation fails fast.
func (d *Device) Lost() bool { return d.lost.Load() }

// Closed reports whether Close has given the device memory back, so that
// no byte of it can be read again.
func (d *Device) Closed() bool { return d.closed.Load() }

// checkLost fails fast when the device is gone.
//
//adsm:noalloc
func (d *Device) checkLost() error {
	if d.lost.Load() {
		return d.errLost()
	}
	return nil
}

// errLost wraps the device-lost sentinel with the device identity, off the
// fault hot path.
//
//adsm:cold
func (d *Device) errLost() error {
	return fmt.Errorf("accel %s: %w", d.cfg.Name, fault.ErrDeviceLost)
}

// noteFault reacts to an injected fault: permanent kinds mark the device
// lost, and the DMA fault counter is bumped when dma is set.
func (d *Device) noteFault(err error, dma bool) {
	if errors.Is(err, fault.ErrDeviceLost) {
		d.lost.Store(true)
	}
	d.mu.Lock()
	if dma {
		d.stats.DMAFaults++
	} else {
		d.stats.LaunchFaults++
	}
	d.mu.Unlock()
}

// launchFault consults the injector for a kernel launch. It must run
// BEFORE the kernel body (the simulator executes bodies at launch time):
// a faulted launch never mutates device memory. Timeout faults charge
// their delay to the host clock before surfacing.
func (d *Device) launchFault() error {
	if err := d.checkLost(); err != nil {
		return err
	}
	if d.inj == nil {
		return nil
	}
	err := d.inj.Decide(fault.OpLaunch)
	if err == nil {
		return nil
	}
	var fe *fault.Error
	if errors.As(err, &fe) && fe.Delay > 0 {
		d.clock.Advance(fe.Delay)
	}
	d.noteFault(err, false)
	return fmt.Errorf("accel %s: launch: %w", d.cfg.Name, err)
}

// dmaAttempt times a DMA of n bytes over link and asks the device's
// injector whether the attempt, of class op, fails. A failed attempt still
// crosses the wire: the returned duration covers it, plus a timeout's
// Delay, and the data must not be considered delivered.
//
//adsm:noalloc
func (d *Device) dmaAttempt(link *interconnect.Link, op fault.Op, n int64) (sim.Time, error) {
	dur := link.TransferTime(n) //adsm:allow noalloc: TransferTime allocates only when lazily registering the link's metrics; the steady-state cost model is alloc-free
	if d.inj == nil {
		return dur, nil
	}
	err := d.inj.Decide(op) //adsm:allow noalloc: Decide allocates only the error of an injected fault; never reached without an injector
	if err == nil {
		return dur, nil
	}
	return dmaFailed(link, dur, err)
}

// dmaFailed charges a failed attempt's timeout penalty to its duration and
// books the fault against the link, which names itself in the error.
//
//adsm:cold
func dmaFailed(link *interconnect.Link, dur sim.Time, err error) (sim.Time, error) {
	var fe *fault.Error
	if errors.As(err, &fe) {
		dur += fe.Delay
	}
	return dur, link.Failed(err)
}

// corruptPattern is the deterministic garbage a KindCorrupt fault
// scribbles over the destination of a failed transfer: retries that fail
// to fully overwrite it show up as byte mismatches in the chaos oracle.
const corruptPattern = 0xDB

// PageMask selects the pages of an H2D write-back that actually land in
// device memory: page i of src (PageSize bytes at offset i*PageSize; the
// last page may be short) lands iff bit First+i of Bits is set. The zero
// PageMask lands every page. The transfer is timed and counted in full
// either way: a mask changes which bytes the simulator copies, never what
// the simulated link does.
type PageMask struct {
	Bits     []uint64
	First    int
	PageSize int64
}

// run returns the end j of the run of pages [i, j), j <= n, of an n-page
// transfer that all land or all do not, and which of the two.
//
//adsm:noalloc
func (p PageMask) run(i, n int64) (int64, bool) {
	first := uint64(p.First)
	j, lands := bitmap.Run(p.Bits, first+uint64(i), first+uint64(n))
	return int64(j - first), lands
}

// Sent returns how many bytes of a size-byte transfer under p land.
//
//adsm:noalloc
func (p PageMask) Sent(size int64) int64 {
	if p.Bits == nil {
		return size
	}
	sent, n := int64(0), (size+p.PageSize-1)/p.PageSize
	for i := int64(0); i < n; {
		j, lands := p.run(i, n)
		if lands {
			sent += min(j*p.PageSize, size) - i*p.PageSize
		}
		i = j
	}
	return sent
}

// memcpyH2DAsyncAt lands the pages of an H2D copy that mask selects, one
// copy per run of consecutive selected pages; the link duration has
// already been computed (and booked) by the caller.
func (d *Device) memcpyH2DAsyncAt(dst mem.Addr, src []byte, mask PageMask, dur sim.Time) sim.Completion {
	d.mu.Lock()
	if mask.Bits == nil {
		d.memory.Write(dst, src)
	} else {
		n := (int64(len(src)) + mask.PageSize - 1) / mask.PageSize
		for i := int64(0); i < n; {
			j, lands := mask.run(i, n)
			if lands {
				lo, hi := i*mask.PageSize, min(j*mask.PageSize, int64(len(src)))
				d.memory.Write(dst+mem.Addr(lo), src[lo:hi])
			}
			i = j
		}
	}
	done := d.dmaH2D.SubmitNow(dur)
	d.stats.BytesH2D += int64(len(src))
	d.stats.CopiesH2D++
	d.pending = sim.MaxCompletion(d.pending, done)
	d.mu.Unlock()
	d.met.h2dNs.Observe(int64(dur))
	d.met.h2dBytes.Observe(int64(len(src)))
	return done
}

// MemcpyH2DAsync copies src into device memory at dst without blocking the
// host. Data moves immediately (the simulation is sequential), but the
// virtual completion time respects DMA queueing and link bandwidth.
func (d *Device) MemcpyH2DAsync(dst mem.Addr, src []byte) sim.Completion {
	return d.memcpyH2DAsyncAt(dst, src, PageMask{}, d.cfg.H2D.TransferTime(int64(len(src))))
}

// TryMemcpyH2DAsync is the fault-aware MemcpyH2DAsync, and the one H2D
// entry point that takes a page mask: the attempt is timed, injected,
// counted and observed on all of src, but only the pages mask selects are
// copied (the caller vouches that the device already holds the others).
// On an injected fault the attempt still occupies the DMA engine for its
// duration (returned in the completion) but no data lands — except under
// KindCorrupt, which scribbles the whole destination range — and the error
// describes the fault. The caller owns retrying. Like TryMemcpyD2HAsync
// it sits on a //adsm:noalloc path (the eviction flush), so the
// fault-only branches carry line suppressions or cold helpers.
//
//adsm:noalloc
func (d *Device) TryMemcpyH2DAsync(dst mem.Addr, src []byte, mask PageMask) (sim.Completion, error) {
	if err := d.checkLost(); err != nil {
		return sim.Completion{At: d.clock.Now()}, err
	}
	dur, ferr := d.dmaAttempt(d.cfg.H2D, fault.OpDMAH2D, int64(len(src)))
	if ferr == nil {
		return d.memcpyH2DAsyncAt(dst, src, mask, dur), nil
	}
	d.noteFault(ferr, true)
	d.mu.Lock()
	var fe *fault.Error
	if errors.As(ferr, &fe) && fe.Kind == fault.KindCorrupt {
		garbage := make([]byte, len(src)) //adsm:allow noalloc: corrupt-fault injection branch only; never reached without an injector
		for i := range garbage {
			garbage[i] = corruptPattern
		}
		d.memory.Write(dst, garbage)
	}
	done := d.dmaH2D.SubmitNow(dur)
	d.pending = sim.MaxCompletion(d.pending, done)
	d.mu.Unlock()
	return done, d.errH2DCopy(ferr)
}

// errH2DCopy wraps an injected H2D fault with the device identity.
//
//adsm:cold
func (d *Device) errH2DCopy(ferr error) error {
	return fmt.Errorf("accel %s: H2D copy: %w", d.cfg.Name, ferr)
}

// MemcpyH2D is the synchronous variant: the host stalls until the copy
// completes.
func (d *Device) MemcpyH2D(dst mem.Addr, src []byte) sim.Time {
	done := d.MemcpyH2DAsync(dst, src)
	return done.Wait(d.clock)
}

// memcpyD2HAsyncAt lands a D2H copy of n bytes into dst, or none of them
// when dst is nil, whose link duration has already been computed (and
// booked) by the caller.
func (d *Device) memcpyD2HAsyncAt(dst []byte, src mem.Addr, n int64, dur sim.Time) sim.Completion {
	d.mu.Lock()
	if dst != nil {
		d.memory.Read(src, dst)
	}
	done := d.dmaD2H.SubmitNow(dur)
	d.stats.BytesD2H += n
	d.stats.CopiesD2H++
	d.pending = sim.MaxCompletion(d.pending, done)
	d.mu.Unlock()
	d.met.d2hNs.Observe(int64(dur))
	d.met.d2hBytes.Observe(n)
	return done
}

// MemcpyD2HAsync copies device memory at src into dst without blocking.
func (d *Device) MemcpyD2HAsync(dst []byte, src mem.Addr) sim.Completion {
	n := int64(len(dst))
	return d.memcpyD2HAsyncAt(dst, src, n, d.cfg.D2H.TransferTime(n))
}

// TryMemcpyD2HAsync is the fault-aware MemcpyD2HAsync of the n bytes at
// src; see TryMemcpyH2DAsync for the failure semantics (here KindCorrupt
// scribbles the host destination buffer). A nil dst lands none of them:
// the attempt is timed, injected, counted and observed in full, and the
// caller reads the bytes it needs later with ReadBytes. It is on the
// demand-fetch hot path (fetchRunSync, and dmaSync, which waits on it for
// a synchronous copy), so the fault-only branches format through cold
// helpers.
//
//adsm:noalloc
func (d *Device) TryMemcpyD2HAsync(dst []byte, src mem.Addr, n int64) (sim.Completion, error) {
	if err := d.checkLost(); err != nil {
		return sim.Completion{At: d.clock.Now()}, err
	}
	dur, ferr := d.dmaAttempt(d.cfg.D2H, fault.OpDMAD2H, n)
	if ferr == nil {
		return d.memcpyD2HAsyncAt(dst, src, n, dur), nil
	}
	d.noteFault(ferr, true)
	var fe *fault.Error
	if errors.As(ferr, &fe) && fe.Kind == fault.KindCorrupt {
		for i := range dst {
			dst[i] = corruptPattern
		}
	}
	d.mu.Lock()
	done := d.dmaD2H.SubmitNow(dur)
	d.pending = sim.MaxCompletion(d.pending, done)
	d.mu.Unlock()
	return done, d.errD2HCopy(ferr)
}

// errD2HCopy wraps an injected D2H fault with the device identity.
//
//adsm:cold
func (d *Device) errD2HCopy(ferr error) error {
	return fmt.Errorf("accel %s: D2H copy: %w", d.cfg.Name, ferr)
}

// MemcpyD2H is the synchronous variant of MemcpyD2HAsync.
func (d *Device) MemcpyD2H(dst []byte, src mem.Addr) sim.Time {
	done := d.MemcpyD2HAsync(dst, src)
	return done.Wait(d.clock)
}

// Memset fills device memory (cudaMemset) asynchronously.
func (d *Device) Memset(dst mem.Addr, b byte, n int64) sim.Completion {
	dur := d.cfg.MemLink.TransferTime(n)
	d.mu.Lock()
	d.memory.Memset(dst, b, n)
	done := d.engine.SubmitNow(dur)
	d.pending = sim.MaxCompletion(d.pending, done)
	d.mu.Unlock()
	return done
}

// WriteBytes stores raw bytes into device memory under the device lock, so
// peer DMA does not race with kernel bodies or in-flight copies.
func (d *Device) WriteBytes(addr mem.Addr, src []byte) {
	d.mu.Lock()
	d.memory.Write(addr, src)
	d.mu.Unlock()
}

// ReadBytes loads raw bytes from device memory under the device lock.
func (d *Device) ReadBytes(addr mem.Addr, dst []byte) {
	d.mu.Lock()
	d.memory.Read(addr, dst)
	d.mu.Unlock()
}

// Register adds a kernel to the device's registry. Registering two kernels
// with the same name panics: it is a programming error in the workload.
func (d *Device) Register(k *Kernel) {
	if k.Name == "" || k.Run == nil {
		panic("accel: kernel needs a name and a body")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.kern[k.Name]; dup {
		panic(fmt.Sprintf("accel: kernel %q registered twice", k.Name))
	}
	d.kern[k.Name] = k
}

// Lookup returns the registered kernel with the given name.
func (d *Device) Lookup(name string) (*Kernel, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	k, ok := d.kern[name]
	return k, ok
}

// Launch dispatches a kernel asynchronously. The kernel body runs now (so
// device memory is up to date for any subsequent host copies), while its
// virtual completion accounts for queueing behind earlier work in the
// default stream. The host is charged only the launch overhead. Concurrent
// launches serialise on the device — one compute engine — while launches on
// different devices run in parallel. The body runs on the calling goroutine
// and may fan its own work out over the host's cores; it returns before
// Launch does, and its virtual cost does not depend on how it ran.
func (d *Device) Launch(name string, args ...uint64) (sim.Completion, error) {
	k, ok := d.Lookup(name)
	if !ok {
		return sim.Completion{}, fmt.Errorf("accel %s: unknown kernel %q", d.cfg.Name, name)
	}
	d.clock.Advance(d.cfg.LaunchOverhead)
	if err := d.launchFault(); err != nil {
		return sim.Completion{At: d.clock.Now()}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	k.Run(d.memory, args)
	dur := k.cost(d, args)
	done := d.engine.Submit(sim.MaxCompletion(d.pending, sim.Completion{At: d.clock.Now()}).At, dur)
	d.stats.Launches++
	d.stats.KernelTime += dur
	d.pending = sim.MaxCompletion(d.pending, done)
	return done, nil
}

// H2DFreeAt reports when the host-to-device DMA engine becomes idle. The
// rolling-update protocol waits on it before submitting an eviction (queue
// depth one, as the paper's §5.2 describes).
func (d *Device) H2DFreeAt() sim.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dmaH2D.FreeAt()
}

// Synchronize blocks the host until all enqueued device work completes and
// returns the stall time (cudaThreadSynchronize).
func (d *Device) Synchronize() sim.Time {
	return d.Pending().Wait(d.clock)
}

// Pending returns the completion of the last enqueued operation.
func (d *Device) Pending() sim.Completion {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pending
}
