package core

import (
	"repro/internal/mem"
	"repro/internal/oplog"
)

// This file implements peer DMA, the architectural support the paper's
// conclusion calls for: I/O devices transferring directly to and from
// accelerator memory, so shared objects used as read()/write() buffers
// never stage through system memory. The disk transfer itself is charged
// by the filesystem layer; the peer path over PCIe is fully overlapped
// with it (the disk is an order of magnitude slower than the bus), so the
// peer transfer adds no CPU time.

// PeerWrite delivers src directly into the accelerator copy of
// [addr, addr+len(src)), invalidating the host copy of the covered blocks.
// Dirty blocks are flushed first so their unwritten bytes are not lost.
func (m *Manager) PeerWrite(addr mem.Addr, src []byte) error {
	o, err := m.enter(oplog.Op{Kind: oplog.OpIOWrite, Addr: addr, Size: int64(len(src))})
	if err != nil {
		return err
	}
	defer m.leave(o)
	if m.hostAuthoritative(o) {
		// Peer DMA cannot help: the bytes belong in the host copy.
		o.mapping.Space.Write(addr, src)
		return nil
	}
	for len(src) > 0 {
		b, n := o.chunk(addr, int64(len(src)))
		if b.state == StateDirty {
			// Preserve host bytes outside the written range. A permanent
			// flush failure degrades o to host-resident mode: land the
			// remaining peer bytes in the authoritative host copy instead.
			if err := m.flushRunEager(b, 1); err != nil {
				o.mapping.Space.Write(addr, src)
				return nil
			}
			m.rolling.forgetBlock(b)
		}
		// The I/O device writes accelerator memory directly; the transfer
		// rides under the (much slower) disk transfer already charged.
		m.dev.WriteBytes(o.devAddr+(addr-o.addr), src[:n])
		m.stats.PeerBytesIn.Add(n)
		if b.state != StateInvalid {
			m.setState(b, 1, StateInvalid)
		}
		addr += mem.Addr(n)
		src = src[n:]
	}
	return nil
}

// PeerRead fills dst directly from the accelerator copy of
// [addr, addr+len(dst)), except for blocks whose current version lives on
// the host (Dirty), which are read from host memory. Host block states are
// untouched: like the interposed memcpy, peer I/O does not warm the CPU
// copy.
func (m *Manager) PeerRead(addr mem.Addr, dst []byte) error {
	o, err := m.enter(oplog.Op{Kind: oplog.OpIORead, Addr: addr, Size: int64(len(dst))})
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
		if b.state == StateDirty {
			o.mapping.Space.Read(addr, dst[:n])
		} else {
			m.dev.ReadBytes(o.devAddr+(addr-o.addr), dst[:n])
			m.stats.PeerBytesOut.Add(n)
		}
		addr += mem.Addr(n)
		dst = dst[n:]
	}
	return nil
}
