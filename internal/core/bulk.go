package core

import (
	"repro/internal/hostmmu"
	"repro/internal/mem"
	"repro/internal/oplog"
	"repro/internal/sim"
)

// This file implements the bulk-memory entry points behind GMAC's library
// interposition of memcpy and memset (Section 4.4 of the paper): instead
// of taking a page fault per touched block, bulk operations on shared
// objects consult the block states directly and use accelerator-specific
// copies for data whose current version lives in device memory.
//
// Each bulk operation holds its object's lock for the whole walk, so it is
// atomic with respect to concurrent host accesses of the same object.

// BulkRead copies [addr, addr+len(dst)) of a shared object into dst,
// taking each block from wherever its current version lives: host memory
// for ReadOnly/Dirty blocks, device memory (a DMA transfer) for Invalid
// blocks. Block states are left untouched — bulk reads do not "warm" the
// CPU copy, mirroring GMAC's overloaded memcpy which bypasses the fault
// path entirely.
func (m *Manager) BulkRead(addr mem.Addr, dst []byte) error {
	o, err := m.boundsCheck(addr, int64(len(dst)))
	if err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.dead {
		return errDead(addr)
	}
	m.emit(oplog.Op{Kind: oplog.OpBulkRead, Addr: addr, Size: int64(len(dst))}, o)
	if m.cfg.Protocol == BatchUpdate || m.degradedLocked(o) {
		// Batch (and degraded objects) keep the host copy authoritative
		// between kernel calls.
		o.mapping.Space.Read(addr, dst)
		return nil
	}
	for len(dst) > 0 {
		b := o.BlockAt(addr)
		n := int64(b.addr) + b.size - int64(addr)
		if n > int64(len(dst)) {
			n = int64(len(dst))
		}
		if b.state == StateInvalid {
			cur := dst[:n]
			src := o.devAddr + (addr - o.addr)
			err := m.retry(sim.CatCopy, "bulk read", func() error {
				t0 := m.clock.Now()
				_, terr := m.dev.TryMemcpyD2H(cur, src)
				d := m.clock.Now() - t0
				m.book(sim.CatCopy, d)
				m.stats.D2HWait.Add(int64(d))
				return terr
			})
			if err != nil {
				// The only valid copy was on the lost device; the read
				// cannot be satisfied.
				return m.escalateLocked(o, "bulk read", err)
			}
			m.emit(oplog.Op{Kind: oplog.OpFetch, Addr: addr, Size: n}, o)
		} else {
			o.mapping.Space.Read(addr, dst[:n])
		}
		addr += mem.Addr(n)
		dst = dst[n:]
	}
	return nil
}

// BulkWrite copies src into [addr, addr+len(src)) of a shared object.
// Fully covered blocks are written straight to device memory with a DMA
// transfer and invalidated on the host; partially covered edge blocks go
// through the normal faulting host path so their unwritten bytes merge
// correctly.
func (m *Manager) BulkWrite(addr mem.Addr, src []byte) error {
	o, err := m.boundsCheck(addr, int64(len(src)))
	if err != nil {
		return err
	}
	o.mu.Lock()
	if o.dead {
		o.mu.Unlock()
		return errDead(addr)
	}
	m.emit(oplog.Op{Kind: oplog.OpBulkWrite, Addr: addr, Size: int64(len(src))}, o)
	if m.cfg.Protocol == BatchUpdate || m.degradedLocked(o) {
		// The host copy is authoritative (re-sent wholesale at the next
		// invoke under batch; never transferred again when degraded).
		o.mapping.Space.Write(addr, src)
		o.mu.Unlock()
		return nil
	}
	for len(src) > 0 {
		b := o.BlockAt(addr)
		n := int64(b.addr) + b.size - int64(addr)
		if n > int64(len(src)) {
			n = int64(len(src))
		}
		if addr == b.addr && n == b.size {
			// Whole block: device write + host invalidation.
			cur := src[:n]
			err := m.retry(sim.CatCopy, "bulk write", func() error {
				t0 := m.clock.Now()
				_, terr := m.dev.TryMemcpyH2D(b.devAddr(), cur)
				d := m.clock.Now() - t0
				m.book(sim.CatCopy, d)
				m.stats.H2DWait.Add(int64(d))
				return terr
			})
			if err != nil {
				// Escalate (degrading o to host-resident mode) and land the
				// remaining bytes in host memory: the write still succeeds,
				// just against the now-authoritative host copy.
				_ = m.escalateLocked(o, "bulk write", err)
				werr := m.hostWriteLocked(o, addr, src)
				o.mu.Unlock()
				m.drainEvictions()
				return werr
			}
			m.emit(oplog.Op{Kind: oplog.OpFlush, Flags: oplog.FlagSync, Addr: addr, Size: n}, o)
			// Leave the rolling bookkeeping consistent: the block is no
			// longer dirty on the host.
			m.rolling.forgetBlock(b)
			b.state = StateInvalid
			m.setProt(b, hostmmu.ProtNone)
		} else {
			if err := m.hostWriteLocked(o, addr, src[:n]); err != nil {
				o.mu.Unlock()
				m.drainEvictions()
				return err
			}
		}
		addr += mem.Addr(n)
		src = src[n:]
	}
	o.mu.Unlock()
	m.drainEvictions()
	return nil
}

// BulkSet fills [addr, addr+n) of a shared object with b, using the
// accelerator's memset engine for fully covered blocks.
func (m *Manager) BulkSet(addr mem.Addr, val byte, n int64) error {
	o, err := m.boundsCheck(addr, n)
	if err != nil {
		return err
	}
	o.mu.Lock()
	if o.dead {
		o.mu.Unlock()
		return errDead(addr)
	}
	m.emit(oplog.Op{Kind: oplog.OpBulkSet, Addr: addr, Size: n, Arg: int64(val)}, o)
	if m.cfg.Protocol == BatchUpdate || m.degradedLocked(o) {
		o.mapping.Space.Memset(addr, val, n)
		o.mu.Unlock()
		return nil
	}
	for n > 0 {
		b := o.BlockAt(addr)
		chunk := int64(b.addr) + b.size - int64(addr)
		if chunk > n {
			chunk = n
		}
		if addr == b.addr && chunk == b.size {
			m.dev.Memset(b.devAddr(), val, chunk)
			m.rolling.forgetBlock(b)
			b.state = StateInvalid
			m.setProt(b, hostmmu.ProtNone)
		} else {
			fill := make([]byte, chunk)
			for i := range fill {
				fill[i] = val
			}
			if err := m.hostWriteLocked(o, addr, fill); err != nil {
				o.mu.Unlock()
				m.drainEvictions()
				return err
			}
		}
		addr += mem.Addr(chunk)
		n -= chunk
	}
	o.mu.Unlock()
	m.drainEvictions()
	return nil
}
