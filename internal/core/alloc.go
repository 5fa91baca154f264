package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/hostmmu"
	"repro/internal/mem"
	"repro/internal/oplog"
	"repro/internal/sim"
)

// This file is the allocation layer: adsmAlloc and adsmFree (§4.2). An
// object gets accelerator memory first, then its host mapping, then its
// blocks, protection and protocol state, and only then is it published to
// the registry.

// pageAlignedSize rounds size up to whole MMU pages.
func (m *Manager) pageAlignedSize(size int64) int64 {
	ps := m.mmu.PageSize()
	return (size + ps - 1) / ps * ps
}

// kernelSet builds the §3.3 kernel-binding set, nil for "all kernels".
func kernelSet(kernels []string) map[string]bool {
	if len(kernels) == 0 {
		return nil
	}
	ks := make(map[string]bool, len(kernels))
	for _, k := range kernels {
		ks[k] = true
	}
	return ks
}

// AllocSpec parameterises one shared-object allocation: its size, its
// declared access mode (mode.go), whether the host mapping must avoid the
// §4.2 shared-address trick (Safe), and its §3.3 kernel binding.
type AllocSpec struct {
	Size int64
	// Mode declares the object's access pattern; the zero value is
	// ModeReadWrite, the paper's default full-coherence behaviour.
	Mode AccessMode
	// Safe places the host mapping wherever the OS finds room (adsmSafeAlloc):
	// the pointer is host-only and kernel arguments need Translate.
	Safe bool
	// Kernels is the §3.3 binding: invocations of other kernels neither
	// flush nor invalidate the object. Empty means every kernel.
	Kernels []string
}

// AllocObject allocates one shared object as described by spec. It is the
// single allocation body; Alloc is a thin wrapper over it. Accelerator
// memory comes first, then the host mapping, whose placement (§4.2) is the
// only branch; if the host side fails the accelerator allocation is given
// back.
func (m *Manager) AllocObject(spec AllocSpec) (mem.Addr, error) {
	if !spec.Mode.Valid() {
		return 0, fmt.Errorf("core: unknown access mode %v", spec.Mode)
	}
	if err := m.checkDeviceLost("alloc"); err != nil {
		return 0, err
	}
	m.charge(sim.CatMalloc, m.cfg.MallocCost)

	t0 := m.clock.Now()
	devAddr, err := m.dev.Malloc(spec.Size)
	m.book(sim.CatCudaMalloc, m.clock.Now()-t0)
	if err != nil {
		return 0, err
	}

	o := &Object{devAddr: devAddr, size: spec.Size, safe: spec.Safe,
		kernels: kernelSet(spec.Kernels), mode: spec.Mode}
	aligned := m.pageAlignedSize(spec.Size)
	switch {
	case spec.Safe:
		// adsmSafeAlloc: the OS places the host mapping, so the pointer is
		// host-only and kernel arguments go through Translate.
		o.mapping, err = m.va.MapAnywhere(aligned)
	case m.dev.HasVirtualMemory():
		// With a device MMU there is never an address conflict: the host
		// picks any free virtual range and the device maps the same range
		// onto its physical allocation (§4.2's "good solution").
		if o.mapping, err = m.va.MapAnywhere(aligned); err == nil {
			o.vm, o.vmPhys, o.devAddr = true, devAddr, o.mapping.Addr
			if err = m.dev.MapVA(o.mapping.Addr, devAddr, spec.Size); err != nil {
				err = errors.Join(err, m.va.Unmap(o.mapping.Addr))
			}
		}
	default:
		// adsmAlloc: mirror the accelerator's address range on the host, so
		// a single pointer serves both processors.
		o.mapping, err = m.va.MapFixed(devAddr, aligned)
		if errors.Is(err, mem.ErrAddrInUse) {
			err = fmt.Errorf("%w: %v", ErrAddrConflict, err)
		}
	}
	if err != nil {
		if freeErr := m.dev.Free(devAddr); freeErr != nil {
			return 0, fmt.Errorf("core: %w (and device free failed: %v)", err, freeErr)
		}
		return 0, err
	}
	o.addr = o.mapping.Addr
	return m.finishAlloc(o)
}

// Alloc implements adsmAlloc: it allocates accelerator memory and mirrors
// the same address range in host memory, so a single pointer serves both
// processors. If the range is already taken on the host it returns
// ErrAddrConflict and the caller should allocate with AllocSpec.Safe.
func (m *Manager) Alloc(size int64) (mem.Addr, error) {
	return m.AllocObject(AllocSpec{Size: size})
}

// finishAlloc initialises o's blocks, protection and protocol state, then
// publishes it to the registry. Publication is last: a concurrent lookup
// either misses the object entirely or sees it fully initialised.
func (m *Manager) finishAlloc(o *Object) (mem.Addr, error) {
	o.seq = m.objSeq.Add(1)
	o.pol = policies[m.cfg.Protocol]
	blockSize := int64(0) // one block spanning the object
	if o.pol.blocked {
		blockSize = m.cfg.BlockSize
	}
	o.makeBlocks(blockSize, m.mmu.PageSize())

	m.mmu.Map(o.addr, m.pageAlignedSize(o.size), hostmmu.ProtReadWrite)
	// A detecting object starts ReadOnly, so its first CPU write faults. A
	// host-authoritative one starts Dirty behind read/write pages and
	// crosses the bus both ways at every call/return boundary (Section 5.1
	// measures slowdowns of up to 65x).
	to := StateReadOnly
	if o.pol.hostAuth {
		to = StateDirty
	}
	m.setState(o.blocks[0], len(o.blocks), to)
	m.rolling.onAlloc()

	if err := m.reg.insertObject(o); err != nil {
		return 0, err
	}

	var flags uint8
	if o.safe {
		flags = oplog.FlagSafe
	}
	m.emit(oplog.Op{Kind: oplog.OpAlloc, Flags: flags, Addr: o.addr, Size: o.size,
		Arg: int64(o.mode), Note: oplog.NoteID(kernelNote(o.kernels))}, o)
	return o.addr, nil
}

// kernelNote serialises an object's §3.3 kernel binding for the op stream:
// the kernel names sorted and comma-joined ("" for an unbound object).
func kernelNote(kernels map[string]bool) string {
	if len(kernels) == 0 {
		return ""
	}
	names := make([]string, 0, len(kernels))
	for k := range kernels {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// Free implements adsmFree.
func (m *Manager) Free(addr mem.Addr) error {
	m.charge(sim.CatFree, m.cfg.FreeCost)
	o := m.reg.objectAt(addr)
	if o == nil || o.addr != addr {
		return fmt.Errorf("%w: free of %#x", ErrNotShared, uint64(addr))
	}
	// Mark the object dead under its lock: accesses already holding o.mu
	// finish first; later ones observe dead and fail with ErrNotShared.
	o.mu.Lock()
	if o.dead {
		o.mu.Unlock()
		return fmt.Errorf("%w: free of %#x", ErrNotShared, uint64(addr))
	}
	o.dead = true
	o.mu.Unlock()

	m.rolling.forget(o)
	// Retire the introspection row first, so /adsm/objects never shows o as
	// neither live nor freed.
	m.introRetire(o)
	m.reg.removeObject(o)
	m.mmu.Unmap(o.addr, m.pageAlignedSize(o.size))
	if err := m.va.Unmap(o.addr); err != nil {
		return err
	}
	t0 := m.clock.Now()
	phys := o.devAddr
	if o.vm {
		phys = o.vmPhys
		if _, err := m.dev.UnmapVA(o.addr); err != nil {
			return err
		}
	}
	err := m.dev.Free(phys)
	m.book(sim.CatCudaFree, m.clock.Now()-t0)
	m.emit(oplog.Op{Kind: oplog.OpFree, Addr: o.addr, Size: o.size}, o)
	return err
}
