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
// compute engine), while DMAs on distinct devices proceed fully in
// parallel.
type Device struct {
	cfg    Config
	clock  *sim.Clock
	memory *mem.Space
	alloc  *mem.Allocator
	dmaH2D *sim.Resource
	dmaD2H *sim.Resource
	engine *sim.Resource
	pt     *pageTable
	met    devMetrics
	// mu guards kern, stats and pending; kernel bodies run under it so
	// concurrent launches cannot race on device memory.
	mu    sync.Mutex
	kern  map[string]*Kernel
	stats Stats
	// pending tracks the last enqueued operation of the default stream so
	// kernels launch after in-flight DMAs and vice versa, matching CUDA's
	// default-stream ordering.
	pending sim.Completion
	// inj, when set, is consulted by the fault-aware entry points
	// (TryMemcpy*, Launch, Stream.Launch). The infallible Memcpy* methods
	// never fault: the CUDA-baseline workloads use them and model a
	// programmer who ignores errors.
	inj *fault.Injector
	// lost flips once a KindDeviceLost fault fires; from then on every
	// fault-aware operation fails fast with fault.ErrDeviceLost.
	lost atomic.Bool
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

// ResetStats zeroes the activity counters (between experiment runs).
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// notePending folds a new completion into the default-stream ordering.
func (d *Device) notePending(done sim.Completion) {
	d.mu.Lock()
	d.pending = sim.MaxCompletion(d.pending, done)
	d.mu.Unlock()
}

// Malloc allocates device memory, charging the host-side overhead.
func (d *Device) Malloc(size int64) (mem.Addr, error) {
	d.clock.Advance(d.cfg.AllocOverhead)
	addr, err := d.alloc.Alloc(size)
	if err != nil {
		return 0, fmt.Errorf("accel %s: %w", d.cfg.Name, err)
	}
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

// AllocSize returns the rounded size of the live allocation at addr (0 if
// none). The shared-memory manager uses it for bookkeeping checks.
func (d *Device) AllocSize(addr mem.Addr) int64 { return d.alloc.SizeOf(addr) }

// LiveAllocs returns the number of live device allocations.
func (d *Device) LiveAllocs() int { return d.alloc.Live() }

// SetFaultInjector arms the device and both directions of its host
// interconnect with a fault injector (chaos tests, gmacbench -faults).
// Only the fault-aware entry points — TryMemcpy*, Launch and
// Stream.Launch — consult it. Install before the run starts.
func (d *Device) SetFaultInjector(in *fault.Injector) {
	d.inj = in
	d.cfg.H2D.SetInjector(in, fault.OpDMAH2D)
	d.cfg.D2H.SetInjector(in, fault.OpDMAD2H)
}

// Lost reports whether the device has been declared lost by a permanent
// injected fault. Once lost, every fault-aware operation fails fast.
func (d *Device) Lost() bool { return d.lost.Load() }

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

// corruptPattern is the deterministic garbage a KindCorrupt fault
// scribbles over the destination of a failed transfer: retries that fail
// to fully overwrite it show up as byte mismatches in the chaos oracle.
const corruptPattern = 0xDB

// memcpyH2DAsyncAt lands an H2D copy whose link duration has already been
// computed (and booked) by the caller.
func (d *Device) memcpyH2DAsyncAt(dst mem.Addr, src []byte, dur sim.Time) sim.Completion {
	d.mu.Lock()
	d.memory.Write(dst, src)
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
	return d.memcpyH2DAsyncAt(dst, src, d.cfg.H2D.TransferTime(int64(len(src))))
}

// TryMemcpyH2DAsync is the fault-aware MemcpyH2DAsync. On an injected
// fault the attempt still occupies the DMA engine for its duration
// (returned in the completion) but no data lands — except under
// KindCorrupt, which scribbles the destination range — and the error
// describes the fault. The caller owns retrying. Like TryMemcpyD2HAsync
// it sits on a //adsm:noalloc path (the eviction flush), so the
// fault-only branches carry line suppressions or cold helpers.
//
//adsm:noalloc
func (d *Device) TryMemcpyH2DAsync(dst mem.Addr, src []byte) (sim.Completion, error) {
	if err := d.checkLost(); err != nil {
		return sim.Completion{At: d.clock.Now()}, err
	}
	dur, ferr := d.cfg.H2D.Transfer(int64(len(src))) //adsm:allow noalloc: Transfer allocates only when injecting a fault or lazily registering its metrics; the steady-state cost model is alloc-free
	if ferr == nil {
		return d.memcpyH2DAsyncAt(dst, src, dur), nil
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

// TryMemcpyH2D is the fault-aware synchronous H2D copy: the host waits
// out even a failed attempt (the engine was occupied) before seeing the
// error.
func (d *Device) TryMemcpyH2D(dst mem.Addr, src []byte) (sim.Time, error) {
	done, err := d.TryMemcpyH2DAsync(dst, src)
	return done.Wait(d.clock), err
}

// memcpyD2HAsyncAt lands a D2H copy whose link duration has already been
// computed (and booked) by the caller.
func (d *Device) memcpyD2HAsyncAt(dst []byte, src mem.Addr, dur sim.Time) sim.Completion {
	d.mu.Lock()
	d.memory.Read(src, dst)
	done := d.dmaD2H.SubmitNow(dur)
	d.stats.BytesD2H += int64(len(dst))
	d.stats.CopiesD2H++
	d.pending = sim.MaxCompletion(d.pending, done)
	d.mu.Unlock()
	d.met.d2hNs.Observe(int64(dur))
	d.met.d2hBytes.Observe(int64(len(dst)))
	return done
}

// MemcpyD2HAsync copies device memory at src into dst without blocking.
func (d *Device) MemcpyD2HAsync(dst []byte, src mem.Addr) sim.Completion {
	return d.memcpyD2HAsyncAt(dst, src, d.cfg.D2H.TransferTime(int64(len(dst))))
}

// TryMemcpyD2HAsync is the fault-aware MemcpyD2HAsync; see
// TryMemcpyH2DAsync for the failure semantics (here KindCorrupt scribbles
// the host destination buffer). It is on the demand-fetch hot path
// (fetchRunSync), so the fault-only branches format through cold
// helpers.
//
//adsm:noalloc
func (d *Device) TryMemcpyD2HAsync(dst []byte, src mem.Addr) (sim.Completion, error) {
	if err := d.checkLost(); err != nil {
		return sim.Completion{At: d.clock.Now()}, err
	}
	dur, ferr := d.cfg.D2H.Transfer(int64(len(dst))) //adsm:allow noalloc: Transfer allocates only when injecting a fault or lazily registering its metrics; the steady-state cost model is alloc-free
	if ferr == nil {
		return d.memcpyD2HAsyncAt(dst, src, dur), nil
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

// TryMemcpyD2H is the fault-aware synchronous D2H copy.
func (d *Device) TryMemcpyD2H(dst []byte, src mem.Addr) (sim.Time, error) {
	done, err := d.TryMemcpyD2HAsync(dst, src)
	return done.Wait(d.clock), err
}

// MemcpyD2D copies within device memory (cudaMemcpyDeviceToDevice).
func (d *Device) MemcpyD2D(dst, src mem.Addr, n int64) sim.Completion {
	buf := make([]byte, n)
	dur := d.cfg.MemLink.TransferTime(2 * n) // read + write of on-board memory
	d.mu.Lock()
	d.memory.Read(src, buf)
	d.memory.Write(dst, buf)
	done := d.engine.SubmitNow(dur)
	d.pending = sim.MaxCompletion(d.pending, done)
	d.mu.Unlock()
	return done
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

// Kernels returns the number of registered kernels.
func (d *Device) Kernels() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.kern)
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
// different devices run in parallel.
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
func (d *Device) H2DFreeAt() sim.Time { return d.dmaH2D.FreeAt() }

// D2HFreeAt reports when the device-to-host DMA engine becomes idle.
func (d *Device) D2HFreeAt() sim.Time { return d.dmaD2H.FreeAt() }

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
