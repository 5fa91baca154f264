package gmac

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hostmmu"
	"repro/machine"
)

// MultiContext is a GMAC session spanning every accelerator of a machine —
// the multi-accelerator configuration of §4.2. Each shared object lives in
// exactly one accelerator's memory; kernel calls are routed to the device
// hosting their data (the data-centric placement ADSM enables), and the
// host MMU dispatches faults to the owning device's manager.
//
// Identity mapping can genuinely fail in this configuration (two devices
// report overlapping physical windows), so Alloc transparently falls back
// to a safe mapping; pass Safe(p) to kernels when Identity(p) reports
// false, or build the machine with VirtualMemory devices to make every
// allocation identity-mapped.
//
// MultiContext implements Session and is safe for concurrent use: host
// goroutines working on objects hosted by different devices allocate,
// fault and launch kernels fully in parallel, and Sync fans out to all
// devices concurrently so their DMA drains overlap.
type MultiContext struct {
	sessionCore
	mgrs []*core.Manager
	next atomic.Int64 // round-robin placement cursor
}

// NewMultiContext builds one manager per device and installs a fault
// dispatcher routing each page fault to the manager owning the address.
func NewMultiContext(m *machine.Machine, cfg Config) (*MultiContext, error) {
	mc := &MultiContext{}
	for _, dev := range m.Devices {
		mgr, err := core.NewManager(managerConfig(cfg), m.Clock, m.Breakdown, m.MMU, m.VA, dev)
		if err != nil {
			return nil, err
		}
		mc.mgrs = append(mc.mgrs, mgr)
	}
	mc.sessionCore = sessionCore{m: m, owner: mc.ownerOf}
	// Each NewManager installed itself as the MMU handler; replace with a
	// dispatcher that routes by owning object.
	m.MMU.SetHandler(func(f hostmmu.Fault) error {
		if mgr := mc.ownerOf(f.Addr); mgr != nil {
			return mgr.HandleFault(f)
		}
		return fmt.Errorf("gmac: fault at %#x outside every shared object", uint64(f.Addr))
	})
	return mc, nil
}

// Devices returns the number of managed accelerators.
func (mc *MultiContext) Devices() int { return len(mc.mgrs) }

// Manager exposes one device's shared-memory manager.
func (mc *MultiContext) Manager(dev int) *core.Manager { return mc.mgrs[dev] }

// Register makes a kernel launchable through Call on every device, so
// calls can be routed by data placement. The factory runs once per device.
func (mc *MultiContext) Register(mk func() *Kernel) {
	for _, mgr := range mc.mgrs {
		mgr.Device().Register(mk())
	}
}

// Alloc implements adsmAlloc across the device set: OnDevice pins
// placement, otherwise objects are placed round-robin. An
// identity-mapping conflict falls back to a safe mapping transparently.
func (mc *MultiContext) Alloc(size int64, opts ...AllocOption) (Ptr, error) {
	o := resolveAllocOptions(opts)
	dev := o.device
	if dev < 0 {
		dev = int((mc.next.Add(1) - 1) % int64(len(mc.mgrs)))
	}
	if dev >= len(mc.mgrs) {
		return 0, fmt.Errorf("gmac: no device %d", dev)
	}
	mgr := mc.mgrs[dev]
	spec := core.AllocSpec{Size: size, Mode: o.mode, Safe: o.safe, Kernels: o.kernels}
	if spec.Safe {
		return mgr.AllocObject(spec)
	}
	p, err := mgr.AllocObject(spec)
	if err == nil {
		return p, nil
	}
	if errors.Is(err, core.ErrAddrConflict) {
		spec.Safe = true
		return mgr.AllocObject(spec)
	}
	return 0, err
}

// ownerOf returns the manager hosting p, or nil.
func (mc *MultiContext) ownerOf(p Ptr) *core.Manager {
	for _, mgr := range mc.mgrs {
		if mgr.IsShared(p) {
			return mgr
		}
	}
	return nil
}

// Owner returns the index of the device hosting p, or -1.
func (mc *MultiContext) Owner(p Ptr) int {
	for i, mgr := range mc.mgrs {
		if mgr.IsShared(p) {
			return i
		}
	}
	return -1
}

// Identity reports whether p is valid on its accelerator as-is.
func (mc *MultiContext) Identity(p Ptr) bool {
	mgr := mc.ownerOf(p)
	if mgr == nil {
		return false
	}
	dv, err := mgr.Translate(p)
	return err == nil && dv == p
}

// Call routes the kernel to the device hosting its first shared pointer
// argument (data-affinity placement), performs that device's release
// actions and — unless Async is given — waits for it and re-acquires that
// device's objects. All shared pointer arguments must live on the same
// device: ADSM kernels can only reach their own accelerator's memory.
func (mc *MultiContext) Call(kernel string, args []uint64, opts ...CallOption) error {
	var target *core.Manager
	for _, a := range args {
		mgr := mc.ownerOf(Ptr(a))
		if mgr == nil {
			continue // scalar argument
		}
		if target == nil {
			target = mgr
		} else if target != mgr {
			return fmt.Errorf("gmac: kernel %s arguments span devices %s and %s",
				kernel, target.Device().Name(), mgr.Device().Name())
		}
	}
	if target == nil {
		return fmt.Errorf("gmac: kernel %s has no shared-object argument to route by", kernel)
	}
	// Translate safe pointers for the device.
	devArgs := make([]uint64, len(args))
	for i, a := range args {
		if mgr := mc.ownerOf(Ptr(a)); mgr == target {
			dv, err := mgr.Translate(Ptr(a))
			if err != nil {
				return err
			}
			devArgs[i] = uint64(dv)
			continue
		}
		devArgs[i] = a
	}
	o := resolveCallOptions(opts)
	err := target.InvokeHinted(kernel, core.CallHints{
		Writes:    o.writes,
		Annotated: o.annotate,
		ReadOnly:  o.ro,
	}, devArgs...)
	if err != nil || o.async {
		return err
	}
	return target.Sync()
}

// Sync waits for every device and runs each manager's acquire actions. The
// fan-out is concurrent, one simulated host thread per device (sim.Clock
// Parallel), so one device's DMA drain overlaps another's kernel tail in
// virtual time instead of serialising behind it. The caller's timeline
// then advances to the slowest device.
func (mc *MultiContext) Sync() error {
	return mc.m.Clock.Parallel(len(mc.mgrs), func(i int) error { return mc.mgrs[i].Sync() })
}

// Stats aggregates all managers' counters.
func (mc *MultiContext) Stats() Stats {
	var total Stats
	for _, mgr := range mc.mgrs {
		total = total.Add(mgr.Stats())
	}
	return total
}
