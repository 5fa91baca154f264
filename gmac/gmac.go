// Package gmac is a Go reproduction of GMAC (Global Memory for
// ACcelerators), the user-level ADSM runtime of Gelado et al., "An
// Asymmetric Distributed Shared Memory Model for Heterogeneous Parallel
// Systems" (ASPLOS 2010).
//
// GMAC maintains a shared logical address space between the CPU and an
// accelerator: a pointer returned by Alloc is valid in host code and in
// accelerator kernels alike. The CPU may transparently read and write
// objects hosted in accelerator memory — the runtime moves data under a
// release-consistency model whose release point is the kernel invocation
// (Call) and whose acquire point is the kernel return (Sync). The
// accelerator itself performs no coherence work, which is the asymmetry
// that keeps accelerators simple.
//
// A minimal session mirrors Table 1 of the paper:
//
//	m := machine.PaperTestbed()
//	ctx, _ := gmac.NewContext(m, gmac.Config{Protocol: gmac.RollingUpdate})
//	ctx.Register(func() *gmac.Kernel { return &gmac.Kernel{Name: "scale", ...} })
//	p, _ := ctx.Alloc(n * 4)                  // adsmAlloc
//	v, _ := ctx.Float32s(p, n)                // CPU-side view of shared memory
//	v.Fill(1.0)                               // CPU writes, faults handled underneath
//	ctx.Call("scale", []uint64{uint64(p), n}) // adsmCall + adsmSync
//	sum := v.At(0)                            // CPU reads accelerator-produced data
//	ctx.Free(p)                               // adsmFree
//
// Context (one accelerator) and MultiContext (every accelerator) both
// implement Session, and every entry point is safe for concurrent use by
// multiple host goroutines.
package gmac

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/machine"
)

// Ptr is a shared-memory pointer, valid on both the CPU and the
// accelerator (for identity-mapped objects) or on the CPU only (Safe()
// allocations).
type Ptr = mem.Addr

// Kernel describes an accelerator kernel: a name, a body operating on
// device memory, and an optional roofline cost model.
type Kernel = accel.Kernel

// DeviceMemory is the accelerator's memory space, passed to kernel bodies.
type DeviceMemory = mem.Space

// Stats exposes the runtime's transfer and fault counters.
type Stats = core.Stats

// TraceLog is the bounded protocol event log enabled by EnableTrace.
type TraceLog = trace.Log

// TraceEvent is one recorded protocol event.
type TraceEvent = trace.Event

// Protocol selects a coherence protocol (Figure 6 of the paper).
type Protocol = core.ProtocolKind

// The three coherence protocols evaluated in Section 5.
const (
	BatchUpdate   = core.BatchUpdate
	LazyUpdate    = core.LazyUpdate
	RollingUpdate = core.RollingUpdate
)

// AccessMode declares, at allocation time, how the host accesses a shared
// object over its lifetime. The runtime lowers the mode into a per-object
// coherence policy: the stronger the declaration, the more protocol work
// it elides. Pass it with the Mode alloc option.
type AccessMode = core.AccessMode

// The access modes. ReadWrite (the zero value) is the unconstrained
// default. ReadOnly objects are sealed at their first kernel release:
// replicated to the device once, then never re-fetched, re-flushed or
// invalidated — a host write after sealing fails with a mode violation.
// WriteOnly objects are produced by the host and consumed by kernels only:
// every device-to-host fetch is elided, and a host read of device-written
// data is a mode violation. Auto objects start under the session protocol
// and migrate online between lazy- and rolling-update as their observed
// fault and eviction rates change.
const (
	ReadWrite = core.ModeReadWrite
	ReadOnly  = core.ModeReadOnly
	WriteOnly = core.ModeWriteOnly
	Auto      = core.ModeAuto
)

// Config parameterises a Context.
type Config struct {
	// Protocol selects the coherence protocol. The zero value is
	// BatchUpdate; most users want RollingUpdate.
	Protocol Protocol
	// BlockSize is the rolling-update block size (bytes, multiple of the
	// machine page size). Defaults to 256 KiB, a good point in Figure 11.
	BlockSize int64
	// RollingDelta is the adaptive rolling-size increment per allocation
	// (default 2, the paper's value).
	RollingDelta int
	// FixedRolling pins the rolling size instead of adapting it.
	FixedRolling int
	// MaxRetries bounds the runtime's transparent retries of injected
	// transfer/launch faults (chaos testing): 0 selects the core default,
	// negative disables retrying.
	MaxRetries int
	// RaceDetect enables the online vector-clock race detector: the
	// runtime's coherence events feed a happens-before checker, detected
	// races land in Stats.RacesDetected and Races(), and the first race
	// triggers a flight dump. Off by default; when off, the fault hot
	// path is unchanged (one nil check). See docs/race-detection.md.
	RaceDetect bool
	// DisableFaultBatching turns off span-fault batching: every host
	// fault then fetches exactly its own block instead of the whole
	// contiguous invalid run the adaptive streak detector predicts. Data
	// results are byte-identical either way; the knob exists for A/B
	// comparison. See docs/performance.md.
	DisableFaultBatching bool
}

// DefaultBlockSize is the rolling-update block size used when Config leaves
// it zero.
const DefaultBlockSize int64 = 256 << 10

func managerConfig(cfg Config) core.Config {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.RollingDelta == 0 {
		cfg.RollingDelta = 2
	}
	return core.Config{
		Protocol:             cfg.Protocol,
		BlockSize:            cfg.BlockSize,
		RollingDelta:         cfg.RollingDelta,
		FixedRolling:         cfg.FixedRolling,
		MallocCost:           2 * sim.Microsecond,
		FreeCost:             1 * sim.Microsecond,
		LaunchCost:           2 * sim.Microsecond,
		TreeNodeCost:         30 * sim.Nanosecond,
		MprotectCost:         300 * sim.Nanosecond,
		MaxRetries:           cfg.MaxRetries,
		RaceDetect:           cfg.RaceDetect,
		DisableFaultBatching: cfg.DisableFaultBatching,
	}
}

// ErrDeviceLost matches (with errors.Is) every error caused by a lost
// accelerator, whether injected directly or escalated from exhausted
// retries. Objects on a lost device degrade to host-resident semantics:
// reads and writes keep working, Call/Sync/Alloc fail fast.
var ErrDeviceLost = fault.ErrDeviceLost

// Context is one application's GMAC session bound to the machine's primary
// accelerator: the Table 1 API plus the interposed I/O and bulk-memory
// entry points of Section 4.4. It implements Session.
type Context struct {
	sessionCore
	mgr *core.Manager
	dev *accel.Device
}

// NewContext builds a GMAC runtime on the given machine, bound to its
// primary accelerator.
func NewContext(m *machine.Machine, cfg Config) (*Context, error) {
	mgr, err := core.NewManager(managerConfig(cfg), m.Clock, m.Breakdown, m.MMU, m.VA, m.Device())
	if err != nil {
		return nil, err
	}
	c := &Context{mgr: mgr, dev: m.Device()}
	c.sessionCore = sessionCore{m: m, owner: func(Ptr) *core.Manager { return mgr }}
	return c, nil
}

// Stats returns the runtime's activity counters.
func (c *Context) Stats() Stats { return c.mgr.Stats() }

// LostDevices returns how many of the session's accelerators have been
// declared lost (0 or 1 for a single-device context).
func (c *Context) LostDevices() int {
	if c.mgr.DeviceLost() {
		return 1
	}
	return 0
}

// Protocol returns the active coherence protocol.
func (c *Context) Protocol() Protocol { return c.mgr.Protocol() }

// Manager exposes the shared-memory manager for experiment harnesses.
func (c *Context) Manager() *core.Manager { return c.mgr }

// EnableTrace records every protocol action (faults, state transitions,
// transfers, evictions, API events) with virtual timestamps, keeping the
// most recent capacity events, and returns the log.
func (c *Context) EnableTrace(capacity int) *TraceLog {
	l := trace.New(capacity)
	c.mgr.SetTracer(l)
	return l
}

// Register makes a kernel launchable through Call. The factory runs once
// per managed device — exactly once for a Context.
func (c *Context) Register(mk func() *Kernel) { c.dev.Register(mk()) }

// Alloc implements adsmAlloc: it allocates size bytes of shared memory and
// returns a pointer valid on both processors. Options select the §3.3
// kernel binding (ForKernels), the §4.2 safe fallback (Safe), and the
// object's declared access mode (Mode).
func (c *Context) Alloc(size int64, opts ...AllocOption) (Ptr, error) {
	o := resolveAllocOptions(opts)
	if o.device > 0 {
		return 0, fmt.Errorf("gmac: no device %d (single-accelerator context)", o.device)
	}
	return c.mgr.AllocObject(core.AllocSpec{
		Size:    size,
		Mode:    o.mode,
		Safe:    o.safe,
		Kernels: o.kernels,
	})
}

// Call implements adsmCall followed by adsmSync: it releases shared
// objects (per the active protocol), launches the kernel, and — unless the
// Async option is given — waits for completion and re-acquires shared
// objects for the CPU. The Writes option supplies the §4.3 write-set
// annotation; ReadOnlyHint and WriteOnlyHint override objects' declared
// access modes for this call.
func (c *Context) Call(kernel string, args []uint64, opts ...CallOption) error {
	o := resolveCallOptions(opts)
	err := c.mgr.InvokeHinted(kernel, core.CallHints{
		Writes:    o.writes,
		Annotated: o.annotate,
		ReadOnly:  o.ro,
		WriteOnly: o.wo,
	}, args...)
	if err != nil || o.async {
		return err
	}
	return c.mgr.Sync()
}

// Sync implements adsmSync: it blocks until the accelerator finishes and
// re-acquires shared objects for the CPU.
func (c *Context) Sync() error { return c.mgr.Sync() }

// String describes the context.
func (c *Context) String() string {
	return fmt.Sprintf("gmac.Context{%s on %s}", c.mgr.Protocol(), c.dev.Name())
}
