package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/mem"
)

// This file is the owed-page copy: a fetch charges its whole transfer but
// lands no byte unless an injector is armed, so the pages are owed to the
// host (Object.owed). A read takes owed pages straight from the device; a
// write, a HostBytes view or an armed write-back copies them in first.

// pull copies the owed pages of [addr, addr+n) from the device into the
// host copy, one ReadBytes per maximal run of owed pages, and clears their
// bits. The fetch that owed them has already paid for the transfer, so
// the copy costs no virtual time. A closed device's memory is gone: the
// access then fails with an error matching fault.ErrDeviceLost. The caller
// holds o.mu.
//
//adsm:noalloc
func (m *Manager) pull(o *Object, addr mem.Addr, n int64) error {
	if n <= 0 || o.owedPages == 0 {
		return nil
	}
	lo, hi := o.pages(addr, n)
	for p := lo; p <= hi; {
		q, owed := o.owedRun(p, hi)
		if owed {
			if m.dev.Closed() {
				return errPullLost(addr)
			}
			off, end := int64(p)<<o.pageShift, min(int64(q)<<o.pageShift, o.size)
			m.dev.ReadBytes(o.devAddr+mem.Addr(off), o.mapping.Space.Bytes(o.addr+mem.Addr(off), end-off))
			o.copies.pulled += end - off
			o.disown(p, q-1)
		}
		p = q
	}
	return nil
}

// pullForWrite readies [addr, addr+n), n > 0, inside block b, for a write.
// On a detecting object that is not degraded, a write of a page or more
// pulls all of b's owed pages: such a writer streams through the block
// (Parboil's tpacf fills its random set 4 KiB at a time), and copying the
// block at its first write, as the fetch did before pages were owed,
// keeps the writes after it on cache-warm host pages instead of putting a
// cache miss on each of them. Otherwise the write pulls the owed pages it
// touches. It fails like pull. The caller holds o.mu.
//
//adsm:noalloc
func (m *Manager) pullForWrite(o *Object, b *Block, addr mem.Addr, n int64) error {
	if n >= int64(1)<<o.pageShift && o.detects() && !o.degraded.Load() {
		return m.pull(o, b.addr, b.size)
	}
	return m.pull(o, addr, n)
}

// pullArmed copies the owed pages of [addr, addr+n) into host memory
// before a write-back of that run on a device with an injector armed: a
// corrupt attempt scribbles the run's device range and its retry re-sends
// the whole host copy, owed pages included. The pages were owed before
// the arming, since a fetch on an armed device lands its bytes. The caller
// holds o.mu.
//
//adsm:noalloc
func (m *Manager) pullArmed(o *Object, addr mem.Addr, n int64) {
	if m.dev.Armed() {
		_ = m.pull(o, addr, n) // fails only on a closed device, whose write-back fails too
	}
}

// readHost copies the host copy of [addr, addr+len(dst)) into dst, once
// the access may read it: owed pages straight from the device, the rest
// from host memory. Owed pages stay owed: the read copies their bytes
// once, into dst, where a pull would copy them twice. It fails like pull
// once the device is closed. The caller holds o.mu.
func (m *Manager) readHost(o *Object, addr mem.Addr, dst []byte) error {
	if o.owedPages == 0 || len(dst) == 0 {
		o.mapping.Space.Read(addr, dst)
		return nil
	}
	off, end := int64(addr-o.addr), int64(addr-o.addr)+int64(len(dst))
	lo, hi := o.pages(addr, int64(len(dst)))
	for p := lo; p <= hi; {
		q, owed := o.owedRun(p, hi)
		next := min(int64(q)<<o.pageShift, end)
		seg := dst[:next-off]
		if !owed {
			o.mapping.Space.Read(o.addr+mem.Addr(off), seg)
		} else if m.dev.Closed() {
			return errPullLost(addr)
		} else {
			m.dev.ReadBytes(o.devAddr+mem.Addr(off), seg)
			o.copies.readThrough += int64(len(seg))
		}
		dst, off, p = dst[len(seg):], next, q
	}
	return nil
}

// errPullLost formats the error of a host access that needs bytes only a
// closed device held.
//
//adsm:cold
func errPullLost(addr mem.Addr) error {
	return fmt.Errorf("core: host access at %#x needs device bytes: %w", uint64(addr), fault.ErrDeviceLost)
}
