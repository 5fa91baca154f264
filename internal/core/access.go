package core

import (
	"fmt"

	"repro/internal/hostmmu"
	"repro/internal/mem"
	"repro/internal/oplog"
)

// This file is the host-access layer: the CPU's loads and stores into
// shared objects. Every entry point takes the object's lock in enter,
// lets the MMU check fault what the protocol has protected, and releases
// the lock in leave. bulk.go, peer.go and mode.go belong to this layer too.

// enter is the one prologue of the host-side entry points: it checks
// [op.Addr, op.Addr+op.Size) against the shared object containing op.Addr,
// takes that object's lock, rejects an object freed since the lookup and a
// host write to a sealed ReadOnly object, and emits op. On success the
// caller holds o.mu and must finish with leave. Owed pages are pulled by
// the access itself once the MMU check has resolved its faults: a fault's
// fetch may owe the very pages a pull here would have copied.
func (m *Manager) enter(op oplog.Op) (*Object, error) {
	if op.Size < 0 {
		return nil, fmt.Errorf("core: negative access size %d", op.Size)
	}
	o := m.reg.objectAt(op.Addr)
	if o == nil {
		return nil, errDead(op.Addr)
	}
	if end := o.addr + mem.Addr(o.size); op.Addr+mem.Addr(op.Size) > end {
		return nil, fmt.Errorf("%w: [%#x,+%d) beyond object end %#x",
			ErrSpansObjects, uint64(op.Addr), op.Size, uint64(end))
	}
	o.mu.Lock()
	if o.dead {
		o.mu.Unlock()
		return nil, errDead(op.Addr)
	}
	if o.pol.sealed {
		if _, write := op.HostAccess(); write {
			o.mu.Unlock()
			return nil, errModeViolation(ModeReadOnly, hostmmu.AccessWrite, op.Addr)
		}
	}
	m.emit(op, o)
	return o, nil
}

// leave is the one epilogue: it releases the lock enter took, then settles
// the cross-object evictions the access deferred (and, once the device is
// lost, degrades whatever is not degraded yet). The per-access entry points
// (HostRead, HostWrite, HostBytes) call it explicitly rather than deferring
// it: a defer costs a fifth of a non-faulting access.
func (m *Manager) leave(o *Object) {
	o.mu.Unlock()
	m.drainEvictions()
}

// HostRead performs a CPU read of [addr, addr+len(dst)) through the MMU,
// faulting and fetching as the protocol dictates, then copies the bytes.
func (m *Manager) HostRead(addr mem.Addr, dst []byte) error {
	o, err := m.enter(oplog.Op{Kind: oplog.OpHostRead, Addr: addr, Size: int64(len(dst))})
	if err != nil {
		return err
	}
	err = m.mmu.CheckRead(addr, int64(len(dst)))
	if err == nil {
		err = m.readHost(o, addr, dst)
	}
	m.leave(o)
	return err
}

// HostWrite performs a CPU write of src to [addr, addr+len(src)) through
// the MMU. Like real store instructions, it proceeds block by block:
// each block's write fault is resolved (which may evict an earlier, already
// written block) before that block's bytes land, never after. Resolving all
// faults up front would let a rolling-cache eviction flush a block the CPU
// has not written yet and then miss the write entirely.
func (m *Manager) HostWrite(addr mem.Addr, src []byte) error {
	o, err := m.enter(oplog.Op{Kind: oplog.OpHostWrite, Addr: addr, Size: int64(len(src))})
	if err != nil {
		return err
	}
	err = m.hostWriteLocked(o, addr, src)
	m.leave(o)
	return err
}

// hostWriteLocked is HostWrite's block-by-block walk: each block's write
// fault is resolved, then the owed pages the write needs are copied in
// (pullForWrite), then the bytes land. The caller holds o.mu.
func (m *Manager) hostWriteLocked(o *Object, addr mem.Addr, src []byte) error {
	for len(src) > 0 {
		b, n := o.chunk(addr, int64(len(src)))
		if err := m.mmu.CheckWrite(addr, n); err != nil {
			return err
		}
		if o.owedPages != 0 {
			if err := m.pullForWrite(o, b, addr, n); err != nil {
				return err
			}
		}
		o.mapping.Space.Write(addr, src[:n])
		o.markWritten(addr, n)
		addr += mem.Addr(n)
		src = src[n:]
	}
	return nil
}

// HostBytes returns the live host backing slice for [addr, addr+n) after
// performing the MMU access check for the given access kind. The public
// API's typed views use it for bulk element reads. For writes it is only
// safe within a single coherence block: resolving a multi-block write walk
// up front can evict an earlier block before the caller writes it — use
// HostWrite for multi-block stores. The returned slice is live memory: the
// caller must not use it concurrently with other accessors of the object,
// and it is invalid after the object's Free, when its bytes may back a
// later object.
func (m *Manager) HostBytes(addr mem.Addr, n int64, access hostmmu.Access) ([]byte, error) {
	op := oplog.Op{Kind: oplog.OpHostAccess, Addr: addr, Size: n}
	if access == hostmmu.AccessWrite {
		op.Flags = oplog.FlagWrite
	}
	o, err := m.enter(op)
	if err != nil {
		return nil, err
	}
	if access == hostmmu.AccessWrite {
		err = m.mmu.CheckWrite(addr, n)
	} else {
		err = m.mmu.CheckRead(addr, n)
	}
	if err == nil && o.owedPages != 0 {
		// The slice exposes host memory: its owed pages come home first.
		err = m.pull(o, addr, n)
	}
	var bytes []byte
	if err == nil {
		if access == hostmmu.AccessWrite {
			o.markWritten(addr, n)
		}
		bytes = o.mapping.Space.Bytes(addr, n)
	}
	m.leave(o)
	return bytes, err
}
