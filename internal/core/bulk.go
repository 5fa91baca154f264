package core

import (
	"bytes"

	"repro/internal/mem"
	"repro/internal/oplog"
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
	o, err := m.enter(oplog.Op{Kind: oplog.OpBulkRead, Addr: addr, Size: int64(len(dst))})
	if err != nil {
		return err
	}
	defer m.leave(o)
	if m.hostAuthoritative(o) {
		o.mapping.Space.Read(addr, dst)
		return nil
	}
	for len(dst) > 0 {
		b, n := o.chunk(addr, int64(len(dst)))
		if b.state == StateInvalid {
			fetch := oplog.Op{Kind: oplog.OpFetch, Addr: addr, Size: n}
			if err := m.dmaSync(o, fetch, o.devAddr+(addr-o.addr), dst[:n], "bulk read"); err != nil {
				// The only valid copy was on the lost device; the read
				// cannot be satisfied.
				return m.escalateLocked(o, "bulk read", err)
			}
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
	o, err := m.enter(oplog.Op{Kind: oplog.OpBulkWrite, Addr: addr, Size: int64(len(src))})
	if err != nil {
		return err
	}
	defer m.leave(o)
	if m.hostAuthoritative(o) {
		o.mapping.Space.Write(addr, src)
		return nil
	}
	for len(src) > 0 {
		b, n := o.chunk(addr, int64(len(src)))
		if addr == b.addr && n == b.size {
			// Whole block: device write + host invalidation.
			flush := oplog.Op{Kind: oplog.OpFlush, Flags: oplog.FlagSync, Addr: addr, Size: n}
			if err := m.dmaSync(o, flush, b.devAddr(), src[:n], "bulk write"); err != nil {
				// Escalate (degrading o to host-resident mode) and land the
				// remaining bytes in host memory: the write still succeeds,
				// just against the now-authoritative host copy.
				_ = m.escalateLocked(o, "bulk write", err)
				return m.hostWriteLocked(o, addr, src)
			}
			// Leave the rolling bookkeeping consistent: the block is no
			// longer dirty on the host.
			m.rolling.forgetBlock(b)
			m.setState(b, 1, StateInvalid)
		} else if err := m.hostWriteLocked(o, addr, src[:n]); err != nil {
			return err
		}
		addr += mem.Addr(n)
		src = src[n:]
	}
	return nil
}

// BulkSet fills [addr, addr+n) of a shared object with val, using the
// accelerator's memset engine for fully covered blocks.
func (m *Manager) BulkSet(addr mem.Addr, val byte, n int64) error {
	o, err := m.enter(oplog.Op{Kind: oplog.OpBulkSet, Addr: addr, Size: n, Arg: int64(val)})
	if err != nil {
		return err
	}
	defer m.leave(o)
	if m.hostAuthoritative(o) {
		o.mapping.Space.Memset(addr, val, n)
		return nil
	}
	for n > 0 {
		b, c := o.chunk(addr, n)
		if addr == b.addr && c == b.size {
			m.dev.Memset(b.devAddr(), val, c)
			m.rolling.forgetBlock(b)
			m.setState(b, 1, StateInvalid)
		} else if err := m.hostWriteLocked(o, addr, bytes.Repeat([]byte{val}, int(c))); err != nil {
			return err
		}
		addr += mem.Addr(c)
		n -= c
	}
	return nil
}
