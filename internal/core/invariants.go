package core

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/oplog"
)

// CheckInvariants verifies the manager's internal consistency. It is meant
// for tests (the model-based oracle calls it after every operation, and the
// concurrency stress tests call it once the storm quiesces) and is the
// executable statement of the Figure 6 design:
//
//  1. Block state and page protection agree (protFor): Dirty blocks are
//     read/write, ReadOnly blocks are read-only, Invalid blocks are
//     inaccessible — on every object that detects accesses (detects).
//  2. Every Dirty block under rolling-update sits in the rolling cache,
//     and the cache never exceeds its capacity.
//  3. The block tree and the per-object block lists agree.
//  4. Block coverage is exact: blocks tile their object with no gaps.
//  5. Owed pages (pull) are never dirty, sit only on current or Invalid
//     blocks of objects that are not degraded (unless the device is
//     closed), and none was owed since the current fault injector was
//     armed (checkOwed).
//
// Each object is checked under its own lock, so the check may run while
// other goroutines are active — though the cache-occupancy comparison is
// only meaningful when the manager is quiescent.
func (m *Manager) CheckInvariants() error {
	err := m.checkInvariants()
	if err != nil {
		// A tripped invariant is a flight-recorder trigger: dump the op
		// stream leading up to it (best-effort, gated by ADSM_FLIGHT_DIR).
		oplog.AutoDump("invariants")
	}
	return err
}

func (m *Manager) checkInvariants() error {
	m.drainEvictions() // settle deferred cross-object victims first
	dirty := 0
	var err error
	m.eachObject(func(o *Object) {
		if err != nil {
			return
		}
		o.mu.Lock()
		defer o.mu.Unlock()
		if o.dead {
			return
		}
		degraded := o.degraded.Load()
		if err = m.checkOwed(o, degraded); err != nil {
			return
		}
		var off int64
		for _, b := range o.blocks {
			if int64(b.addr) != int64(o.addr)+off {
				err = fmt.Errorf("core: block %#x misplaced in object %#x", uint64(b.addr), uint64(o.addr))
				return
			}
			off += b.size
			if got, _ := m.reg.blockAt(b.addr); got != b {
				err = fmt.Errorf("core: block registry disagrees at %#x", uint64(b.addr))
				return
			}
			if e := m.checkBlockProt(b); e != nil {
				err = e
				return
			}
			if degraded {
				// Degraded objects are host-resident: every block Dirty and
				// writable, nothing in the rolling cache.
				if b.state != StateDirty {
					err = fmt.Errorf("core: degraded object %#x has %v block %#x",
						uint64(o.addr), b.state, uint64(b.addr))
					return
				}
				if m.rolling.isQueued(b) {
					err = fmt.Errorf("core: degraded block %#x still queued", uint64(b.addr))
					return
				}
				continue
			}
			if b.state == StateDirty {
				if o.pol.rolls {
					dirty++
					if !m.rolling.isQueued(b) {
						err = fmt.Errorf("core: dirty block %#x outside the rolling cache", uint64(b.addr))
						return
					}
				}
			} else if m.rolling.isQueued(b) {
				err = fmt.Errorf("core: non-dirty block %#x still queued", uint64(b.addr))
				return
			}
		}
		if off != o.size {
			err = fmt.Errorf("core: blocks cover %d of %d bytes in object %#x", off, o.size, uint64(o.addr))
		}
	})
	if err != nil {
		return err
	}
	if m.rolling.Len() != dirty {
		return fmt.Errorf("core: rolling cache holds %d blocks but %d are dirty", m.rolling.Len(), dirty)
	}
	if m.rolling.Len() > m.rolling.Capacity() {
		return fmt.Errorf("core: rolling cache %d over capacity %d", m.rolling.Len(), m.rolling.Capacity())
	}
	return nil
}

// checkOwed verifies o's owed pages: none is also dirty and owedPages
// counts them. They sit only on an object that is not degraded, or was
// degraded by a closed device, which took their bytes with it. None was
// owed since the current fault injector was armed: an armed fetch lands
// its bytes, since a failed transfer must leave them with the host
// (recover.go). Pages owed before the arming stay owed until a write-back
// of their run pulls them (pullArmed). And they sit only on blocks that
// are current or Invalid, since a Dirty block that is not current writes
// back whole, stale owed pages included. The caller holds o.mu.
func (m *Manager) checkOwed(o *Object, degraded bool) error {
	n := 0
	for w, owed := range o.owed {
		if owed&o.dirty[w] != 0 {
			return fmt.Errorf("core: object %#x has pages both owed and dirty", uint64(o.addr))
		}
		n += bits.OnesCount64(owed)
	}
	switch {
	case n != o.owedPages:
		return fmt.Errorf("core: object %#x owes %d pages but counts %d", uint64(o.addr), n, o.owedPages)
	case n == 0:
		return nil
	case degraded && m.dev.Closed():
		// The device took their bytes with it; accesses to them fail.
		return nil
	case degraded:
		return fmt.Errorf("core: degraded object %#x owes pages", uint64(o.addr))
	case m.dev.Armed() && o.owedArms == m.dev.Arms():
		return fmt.Errorf("core: object %#x owes pages it fetched while a fault injector was armed", uint64(o.addr))
	}
	for _, b := range o.blocks {
		if b.current || b.state == StateInvalid {
			continue
		}
		if lo, hi := o.pages(b.addr, b.size); o.owes(lo, hi) {
			return fmt.Errorf("core: %v block %#x owes pages but is not current", b.state, uint64(b.addr))
		}
	}
	return nil
}

// checkBlockProt verifies the state <-> protection correspondence for
// every page of the block.
func (m *Manager) checkBlockProt(b *Block) error {
	if !b.obj.detects() {
		return nil
	}
	// The same rule setState applies, so the invariant and the transition
	// cannot disagree.
	want := protFor[b.state]
	ps := m.mmu.PageSize()
	end := int64(b.addr) + b.size
	for page := int64(b.addr) &^ (ps - 1); page < end; page += ps {
		// Pages shared with a neighbouring block (short blocks inside one
		// page) legitimately carry the more permissive neighbour's
		// protection; only whole pages are checked strictly.
		if page < int64(b.addr) || page+ps > end {
			continue
		}
		got, ok := m.mmu.Protection(mem.Addr(page))
		if !ok {
			return fmt.Errorf("core: page %#x of live block unmapped", page)
		}
		if got != want {
			return fmt.Errorf("core: block %#x state %v but page %#x protection %v",
				uint64(b.addr), b.state, page, got)
		}
	}
	return nil
}
