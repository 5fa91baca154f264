package core

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/oplog"
	"repro/internal/sim"
)

// This file is the manager's fault-recovery policy, exercised by the chaos
// harness (internal/fault + the chaos conformance suite):
//
//   - Transient injected faults on transfers and launches are retried
//     transparently with exponential backoff in virtual time, bounded by
//     Config.MaxRetries.
//   - An exhausted retry budget, or an explicitly injected device-lost
//     fault, escalates: the device is declared lost and the affected object
//     degrades to host-resident batch-update semantics (all blocks Dirty
//     and writable, never transferred again). Host reads and writes keep
//     working on whatever data the host holds; Invoke/Sync/Alloc fail fast
//     with an error matching fault.ErrDeviceLost.
//   - Objects not involved in the failing operation degrade lazily: every
//     entry point's drainEvictions sweep degrades the remaining objects
//     once the device is lost.
//
// Degradation is lossy by nature for blocks whose only valid copy was on
// the lost device (StateInvalid): the host keeps its stale bytes. That is
// inherent to losing a device, not a recovery bug.

const (
	// DefaultMaxRetries is Config.MaxRetries' default.
	DefaultMaxRetries = 4
	// DefaultRetryBase is the virtual-time backoff of the first retry;
	// attempt i backs off DefaultRetryBase<<i.
	DefaultRetryBase = 25 * sim.Microsecond
)

// maxRetries resolves Config.MaxRetries: 0 means the default, negative
// disables retrying.
func (m *Manager) maxRetries() int {
	switch {
	case m.cfg.MaxRetries > 0:
		return m.cfg.MaxRetries
	case m.cfg.MaxRetries < 0:
		return 0
	default:
		return DefaultMaxRetries
	}
}

// retryStep books one failed attempt of a transfer or launch: it decides
// whether the caller's retry loop should run another attempt (after
// charging the backoff to cat, attempt i waiting DefaultRetryBase<<i), or
// returns the error to propagate. Non-injected errors and device-lost
// faults pass through at once; an exhausted budget returns the last fault
// wrapped. Each caller loops inline, so no path takes a func value.
// Everything it does (charge, emit) runs only after an injected fault, so
// the whole step is //adsm:cold.
//
//adsm:cold
func (m *Manager) retryStep(cat sim.Category, what string, attempt int, err error) (again bool, _ error) {
	if !errors.Is(err, fault.ErrInjected) || errors.Is(err, fault.ErrDeviceLost) {
		return false, err
	}
	if attempt >= m.maxRetries() {
		m.emit(oplog.Op{Kind: oplog.OpRetry, Flags: oplog.FlagGiveup,
			Arg: int64(attempt), Note: oplog.NoteID(what)}, nil)
		oplog.AutoDump(m.FlightLog("retry-giveup"))
		return false, fmt.Errorf("core: %s failed after %d retries: %w", what, attempt, err)
	}
	backoff := DefaultRetryBase << uint(attempt)
	m.charge(cat, backoff)
	m.emit(oplog.Op{Kind: oplog.OpRetry, Arg: int64(attempt), Note: oplog.NoteID(what)}, nil)
	return true, nil
}

// markDeviceLost transitions the manager to the lost state (idempotent).
func (m *Manager) markDeviceLost(cause error) {
	if m.lost.Swap(true) {
		return
	}
	// The cause is interned as the op's note — once per manager, and the
	// note table is bounded — so the flight dump names it.
	m.emit(oplog.Op{Kind: oplog.OpDeviceLost, Note: oplog.NoteID(cause.Error())}, nil)
	oplog.AutoDump(m.FlightLog("device-lost"))
}

// degradeObjectLocked switches o to host-resident batch-update semantics:
// every block Dirty, pages writable, nothing in the rolling cache. The
// caller holds o.mu. Degradation happens at most once per object, on
// device loss.
//
//adsm:cold
func (m *Manager) degradeObjectLocked(o *Object) {
	if o.dead || o.degraded.Load() {
		return
	}
	m.rolling.forget(o)
	m.setState(o.blocks[0], len(o.blocks), StateDirty)
	// Owed pages come home while the device memory is still there, however
	// the device was lost: they hold the last successful acquire's bytes.
	// On a closed device they stay owed, so a host access to one keeps
	// failing (readHost, pull) instead of reading the bytes from before
	// that acquire.
	if o.owedPages != 0 && !m.dev.Closed() {
		_ = m.pull(o, o.addr, o.size) // fails only on a closed device
	}
	o.degraded.Store(true)
	m.emit(oplog.Op{Kind: oplog.OpDegrade, Addr: o.addr, Size: o.size}, o)
}

// degradeAll degrades every live object; called once the device is lost.
// Objects are locked one at a time (the no-two-Object.mu discipline).
func (m *Manager) degradeAll() {
	for _, o := range m.reg.snapshot() {
		o.mu.Lock()
		m.degradeObjectLocked(o)
		o.mu.Unlock()
	}
}

// degradedLocked reports whether o must take the host-resident path,
// lazily degrading it when the device has been lost since the last access.
// The caller holds o.mu. The common path is two atomic loads; the one-shot
// degradation is a blessed cold call.
//
//adsm:noalloc
func (m *Manager) degradedLocked(o *Object) bool {
	if o.degraded.Load() {
		return true
	}
	if m.lost.Load() {
		m.degradeObjectLocked(o)
		return true
	}
	return false
}

// escalateLocked handles an unrecoverable failure of a transfer touching
// o: the device is declared lost, o degrades, and the error is returned
// wrapped so it matches fault.ErrDeviceLost (joining the sentinel when the
// original fault was merely transient-but-exhausted). The caller holds
// o.mu. Device loss is terminal, so the whole escalation is cold.
//
//adsm:cold
func (m *Manager) escalateLocked(o *Object, what string, err error) error {
	m.markDeviceLost(err)
	m.degradeObjectLocked(o)
	return m.wrapLost(what, err)
}

// escalateDevice is escalateLocked without an object in hand (kernel
// launches): objects degrade lazily at the next entry point.
func (m *Manager) escalateDevice(what string, err error) error {
	m.markDeviceLost(err)
	return m.wrapLost(what, err)
}

func (m *Manager) wrapLost(what string, err error) error {
	if errors.Is(err, fault.ErrDeviceLost) {
		return fmt.Errorf("core: %s: %w", what, err)
	}
	return fmt.Errorf("core: %s: %w", what, errors.Join(fault.ErrDeviceLost, err))
}

// checkDeviceLost fails fast once the device is lost.
func (m *Manager) checkDeviceLost(what string) error {
	if !m.lost.Load() {
		return nil
	}
	return fmt.Errorf("core: %s: %w", what, fault.ErrDeviceLost)
}
