package core

import (
	"errors"
	"fmt"

	"repro/internal/hostmmu"
	"repro/internal/mem"
)

// AccessMode declares how an object is accessed over its lifetime, in the
// spirit of access-mode declarations subsuming per-object coherence
// decisions (Henrio/Kessler/Li): every object runs the manager's protocol,
// and its mode is a declaration that elides the coherence work it proves
// unnecessary.
//
//adsm:statecase
type AccessMode uint8

// Access modes. The zero value is ModeReadWrite — the paper's default
// behaviour — so existing allocations are unaffected.
const (
	// ModeReadWrite is the default: full coherence under the manager's
	// configured protocol, exactly the paper's Figure 6 behaviour.
	ModeReadWrite AccessMode = iota
	// ModeReadOnly declares the object read-only after initialisation: the
	// host writes it once, then kernels only read it. At the first kernel
	// release the object is flushed and sealed — replicated once — and
	// never invalidated again, so it generates zero fault-service DMA for
	// the rest of the run. Host writes after the seal fail with
	// ErrModeViolation, and listing the object in a kernel write set is an
	// error.
	ModeReadOnly
	// ModeWriteOnly declares that the host only writes the object (an
	// input buffer kernels consume): a host write fault on an Invalid
	// block skips the device fetch — Invalid data is never DMA'd
	// host-ward — because the host promises to overwrite the block before
	// it is next flushed. Host reads of Invalid data fail with
	// ErrModeViolation.
	ModeWriteOnly
)

func (m AccessMode) String() string {
	switch m {
	case ModeReadWrite:
		return "read-write"
	case ModeReadOnly:
		return "read-only"
	case ModeWriteOnly:
		return "write-only"
	default:
		return fmt.Sprintf("AccessMode(%d)", uint8(m))
	}
}

// Valid reports whether m is a known access mode.
func (m AccessMode) Valid() bool { return m <= ModeWriteOnly }

// ErrModeViolation is returned when an access contradicts an object's
// declared access mode: a host write to a sealed read-only object, or a
// host read of Invalid data in a write-only object.
var ErrModeViolation = errors.New("core: access violates the object's declared access mode")

// errModeViolation formats the violation off the //adsm:noalloc fault path.
//
//adsm:cold
func errModeViolation(mode AccessMode, access hostmmu.Access, addr mem.Addr) error {
	return fmt.Errorf("%w: %v %v at %#x", ErrModeViolation, mode, access, uint64(addr))
}

// checkModeFault vets a protection fault against the faulted object's
// declared access mode before the protocol resolves it: a read of Invalid
// data in a WriteOnly object would observe the fetch the mode elides. A
// host write to a sealed ReadOnly object never gets this far; enter
// rejects it. The caller holds b.obj.mu.
//
//adsm:noalloc
func (m *Manager) checkModeFault(b *Block, access hostmmu.Access) error {
	if b.obj.mode == ModeWriteOnly && access != hostmmu.AccessWrite && b.state == StateInvalid {
		return errModeViolation(ModeWriteOnly, access, b.addr)
	}
	return nil
}

// checkModeRead vets a bulk or peer read of [addr, addr+n) against o's
// declared access mode before any byte moves: every block it covers goes
// through checkModeFault as a faulting host read would, so neither path
// fetches the data a WriteOnly declaration says is never fetched. The
// caller holds o.mu.
func (m *Manager) checkModeRead(o *Object, addr mem.Addr, n int64) error {
	if o.mode != ModeWriteOnly {
		return nil
	}
	for n > 0 {
		b, c := o.chunk(addr, n)
		if err := m.checkModeFault(b, hostmmu.AccessRead); err != nil {
			return err
		}
		addr += mem.Addr(c)
		n -= c
	}
	return nil
}
