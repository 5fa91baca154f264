package core

import (
	"fmt"

	"repro/internal/hostmmu"
	"repro/internal/sim"
)

// This file is the coherence-protocol engine. The paper's three protocols
// are one machine (§4.3): rolling-update is lazy-update with fixed-size
// blocks and a bounded FIFO of dirty blocks, and batch-update is the same
// object with access detection off. So a protocol is not a branch but a
// per-object policy value (Object.pol) read on one path: every object runs
// the manager's configured protocol, and sealing a ModeReadOnly object
// swaps in a sealed copy of it.
// All actions run on the CPU timeline; the accelerator performs no
// coherence work.
//
// This file holds the coherence state: the policies and the one writer of
// a block's state and page protection (setState). The edges that read
// them are the fault service (fault.go) and the kernel boundary (call.go);
// object.go, the blocks and their page bitmaps, is this layer too.

// policy is a coherence protocol as a value: the choices its edges read.
type policy struct {
	detects bool // page protections track block states (protFor)
	blocked bool // carved into Config.BlockSize blocks, not one block
	rolls   bool // a newly dirty block joins the bounded rolling FIFO
	// hostAuth: with no access detection, the host copy is current between
	// kernel calls. The object starts Dirty, a flush is synchronous and
	// leaves it Dirty, every acquire fetches all of it back Dirty, and bulk
	// and peer operations act on host memory.
	hostAuth bool
	sealed   bool // a ModeReadOnly replica past its first release (sealReadOnly)
}

// policies maps each protocol kind to its policy.
var policies = [...]policy{
	BatchUpdate:   {hostAuth: true},
	LazyUpdate:    {detects: true},
	RollingUpdate: {detects: true, blocked: true, rolls: true},
}

// protFor is the page protection each Figure 6 state sits behind, on the
// objects whose pages detect accesses at all (detects).
var protFor = [...]hostmmu.Prot{
	StateInvalid:  hostmmu.ProtNone,
	StateReadOnly: hostmmu.ProtRead,
	StateDirty:    hostmmu.ProtReadWrite,
}

// detects reports whether o's page protections track its block states:
// false only for an unsealed batch-update object, whose pages stay
// read/write. The caller holds o.mu.
func (o *Object) detects() bool { return o.pol.detects }

// setState is the Figure 6 transition and the only writer of Block.state:
// it moves the n consecutive blocks starting at first to state to and, when
// their object detects accesses, re-protects the run's pages to match with
// a single mprotect (one charge). An Invalid block is no longer current:
// the device copy is the one that may now change. The caller holds
// first.obj.mu.
//
//adsm:noalloc
func (m *Manager) setState(first *Block, n int, to State) {
	o := first.obj
	for _, b := range o.blocks[first.index : first.index+n] {
		b.state = to
		b.current = b.current && to != StateInvalid
	}
	if o.detects() {
		m.setProtRun(first, n, protFor[to])
	}
}

// hostAuthoritative reports whether o's host copy is the current version of
// every byte between kernel calls, so bulk and peer operations act on host
// memory alone: under a host-authoritative policy (re-sent wholesale at the
// next invoke) and once o is degraded (never transferred again). The
// caller holds o.mu.
func (m *Manager) hostAuthoritative(o *Object) bool {
	return o.pol.hostAuth || m.degradedLocked(o)
}

// setProtRun changes the protection of n consecutive blocks with a single
// mprotect call (one charge for the whole run). Only setState calls it.
//
//adsm:noalloc
func (m *Manager) setProtRun(first *Block, n int, prot hostmmu.Prot) {
	m.charge(sim.CatSignal, m.cfg.MprotectCost)
	if err := m.mmu.Mprotect(first.addr, runSize(first, n), prot); err != nil {
		// Blocks are always mapped while their object lives; failure here
		// is a manager bug, not a recoverable condition.
		mprotectFailed(err)
	}
}

// mprotectFailed raises the mprotect-failure panic; the formatting lives
// off the //adsm:noalloc protection-change path.
//
//adsm:cold
func mprotectFailed(err error) {
	panic(fmt.Sprintf("core: mprotect of live block run failed: %v", err))
}
