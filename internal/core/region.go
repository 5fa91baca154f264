package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/oplog"
	"repro/internal/sim"
)

// Regional acquire/release scopes (Ramesh et al., "Regional Consistency"):
// coherence actions over an explicit set of objects, narrower than the
// whole-kernel Sync/Invoke boundaries. A region acquire makes the listed
// objects host-valid without touching anything else; a region release
// publishes the host's writes to the listed objects without waiting for the
// next kernel call. Both are recorded as input ops, so replays reproduce
// them deterministically.

// AcquireRegion waits for the accelerator and makes the listed objects'
// host copies valid: the regional narrowing of Sync. Objects outside the
// region are untouched — under batch-update in particular they are not
// fetched, so a region acquire can be far cheaper than a full Sync.
func (m *Manager) AcquireRegion(addrs ...mem.Addr) error {
	m.callMu.Lock()
	defer m.callMu.Unlock()
	m.drainEvictions()
	if err := m.checkDeviceLost("region-acquire"); err != nil {
		return err
	}
	objs, err := m.regionObjects(addrs)
	if err != nil {
		return err
	}
	sp := m.beginSpan("region-acquire", "")
	defer m.endSpan(sp)
	m.recordRegion(oplog.OpRegionAcquire, addrs)
	stall := m.dev.Synchronize()
	m.book(sim.CatGPU, stall)
	for _, o := range objs {
		o.mu.Lock()
		if !o.dead && !o.degraded.Load() {
			err = m.acquireRegionObject(o)
		}
		o.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// ReleaseRegion publishes the host's writes to the listed objects: the
// regional narrowing of the pre-kernel release sweep. Dirty blocks are
// flushed and downgraded so both copies match; nothing is invalidated.
func (m *Manager) ReleaseRegion(addrs ...mem.Addr) error {
	m.callMu.Lock()
	defer m.callMu.Unlock()
	m.drainEvictions()
	if err := m.checkDeviceLost("region-release"); err != nil {
		return err
	}
	objs, err := m.regionObjects(addrs)
	if err != nil {
		return err
	}
	sp := m.beginSpan("region-release", "")
	defer m.endSpan(sp)
	m.recordRegion(oplog.OpRegionRelease, addrs)
	for _, o := range objs {
		o.mu.Lock()
		if !o.dead && !o.degraded.Load() {
			err = m.releaseRegionObject(o)
		}
		o.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// regionObjects resolves a region's pointer list to its objects, rejecting
// unshared addresses and deduplicating while preserving order.
func (m *Manager) regionObjects(addrs []mem.Addr) ([]*Object, error) {
	objs := make([]*Object, 0, len(addrs))
	for _, addr := range addrs {
		o := m.objectAt(addr)
		if o == nil {
			return nil, fmt.Errorf("%w: region pointer %#x", ErrNotShared, uint64(addr))
		}
		dup := false
		for _, seen := range objs {
			if seen == o {
				dup = true
				break
			}
		}
		if !dup {
			objs = append(objs, o)
		}
	}
	return objs, nil
}

// recordRegion emits a region op: one OpRegionPtr per pointer, then the
// scope op carrying the pointer count.
func (m *Manager) recordRegion(kind oplog.Kind, addrs []mem.Addr) {
	for _, addr := range addrs {
		m.emit(oplog.Op{Kind: oplog.OpRegionPtr, Addr: addr}, m.objectAt(addr))
	}
	m.emit(oplog.Op{Kind: kind, Arg: int64(len(addrs))}, nil)
}

// acquireRegionObject fetches o's Invalid blocks so the host copy is valid.
// The caller holds o.mu.
func (m *Manager) acquireRegionObject(o *Object) error {
	if o.mode == ModeWriteOnly {
		// The host never reads o: fetching would DMA data the host is about
		// to overwrite.
		m.stats.FetchElisions.Add(int64(o.countState(StateInvalid)))
		return nil
	}
	for _, b := range o.blocks {
		if b.state != StateInvalid {
			continue
		}
		if err := m.fetchRunSync(b, 1); err != nil {
			return err
		}
		to := StateReadOnly
		if o.pol.hostAuth {
			// No protection observes the next host write, so the refreshed
			// block must stay conservatively Dirty.
			to = StateDirty
		}
		m.setState(b, 1, to)
	}
	return nil
}

// releaseRegionObject flushes o's dirty blocks so the device copy is
// current. The caller holds o.mu.
func (m *Manager) releaseRegionObject(o *Object) error {
	// Every dirty block is flushed right here; drop the cache's claim.
	m.rolling.forget(o)
	for _, b := range o.blocks {
		if b.state != StateDirty {
			continue
		}
		if o.pol.hostAuth {
			// Publish now, but keep the block Dirty: with no access
			// detection it must conservatively re-send at the next kernel
			// call.
			if err := m.flushBlockSync(b); err != nil {
				return err
			}
			continue
		}
		if err := m.flushRunEager(b, 1); err != nil {
			return err
		}
		m.setState(b, 1, StateReadOnly)
	}
	return nil
}
