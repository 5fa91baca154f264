package gmac

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hostmmu"
	"repro/internal/osabs"
	"repro/machine"
)

// Session is the unified GMAC API surface, implemented by both Context
// (one accelerator) and MultiContext (every accelerator of the machine).
// Code written against Session runs unchanged on either: the paper's
// single-GPU benchmarks and the §4.2 multi-accelerator configuration share
// one code path.
//
// Allocation and kernel-call variants are expressed as functional options
// instead of separate methods:
//
//	p, _ := s.Alloc(n, gmac.ForKernels("scale"))   // §3.3 binding
//	q, _ := s.Alloc(n, gmac.Safe())                // §4.2 fallback
//	s.Call("scale", []uint64{uint64(p), n})        // release + launch + acquire
//	s.Call("scale", []uint64{uint64(p), n},
//	    gmac.Writes(p), gmac.Async())              // §4.3 annotation, async
//
// Sessions are safe for concurrent use by multiple host goroutines: faults
// on different objects are serviced in parallel, and kernel dispatch to
// different devices overlaps.
type Session interface {
	// Machine returns the underlying simulated machine.
	Machine() *machine.Machine
	// Register makes a kernel launchable through Call. The factory is
	// invoked once per managed device.
	Register(mk func() *Kernel)
	// Alloc implements adsmAlloc with functional options: ForKernels binds
	// the object to specific kernels (§3.3), Safe forces the non-identity
	// mapping (§4.2), OnDevice pins placement in a multi-device session,
	// and Mode declares the host's access pattern for the object.
	Alloc(size int64, opts ...AllocOption) (Ptr, error)
	// Free implements adsmFree.
	Free(p Ptr) error
	// Call implements adsmCall followed by adsmSync: it releases shared
	// objects, launches the kernel, and (unless Async is given) waits for
	// completion and re-acquires shared objects for the CPU. Writes
	// annotates the kernel's write set (§4.3).
	Call(kernel string, args []uint64, opts ...CallOption) error
	// Sync implements adsmSync across every managed device.
	Sync() error
	// Safe implements adsmSafe: the accelerator address of a shared byte.
	Safe(p Ptr) (Ptr, error)
	// HostRead reads shared memory through the normal faulting CPU path.
	HostRead(p Ptr, dst []byte) error
	// HostWrite writes shared memory through the normal faulting CPU path.
	HostWrite(p Ptr, src []byte) error
	// Memset fills shared memory through the interposed bulk path.
	Memset(p Ptr, b byte, n int64) error
	// MemcpyToShared copies a host buffer into shared memory through the
	// interposed bulk path (§4.4).
	MemcpyToShared(dst Ptr, src []byte) error
	// MemcpyFromShared copies shared memory into a host buffer.
	MemcpyFromShared(dst []byte, src Ptr) error
	// MemcpyShared copies between two shared objects, possibly on
	// different accelerators (§4.4).
	MemcpyShared(dst, src Ptr, n int64) error
	// ReadFile is the interposed read(2) into shared memory (§4.4).
	ReadFile(f *osabs.File, p Ptr, n int64) (int64, error)
	// WriteFile is the interposed write(2) from shared memory (§4.4).
	WriteFile(f *osabs.File, p Ptr, n int64) (int64, error)
	// Float32s returns a typed CPU-side view of shared memory.
	Float32s(p Ptr, n int64) (Float32View, error)
	// Stats returns the aggregated activity counters.
	Stats() Stats
}

// Compile-time checks that both session types implement Session.
var (
	_ Session = (*Context)(nil)
	_ Session = (*MultiContext)(nil)
)

// allocOptions collects the resolved Alloc options.
type allocOptions struct {
	kernels []string
	safe    bool
	device  int // -1 = automatic placement
	mode    AccessMode
}

// AllocOption configures one Alloc call.
type AllocOption func(*allocOptions)

// ForKernels binds the allocation to the given kernels (§3.3's elaborated
// allocation API): calls to other kernels leave the object untouched on the
// host — no flush, no invalidation — so the CPU works on it undisturbed
// while unrelated kernels run.
func ForKernels(kernels ...string) AllocOption {
	return func(o *allocOptions) { o.kernels = append(o.kernels, kernels...) }
}

// Safe forces the adsmSafeAlloc fallback (§4.2): the host mapping is placed
// wherever the OS finds room, so the returned pointer is CPU-only and must
// be translated with Session.Safe before being passed to a kernel.
func Safe() AllocOption {
	return func(o *allocOptions) { o.safe = true }
}

// OnDevice pins the allocation to the given accelerator of a multi-device
// session. Single-device sessions accept only device 0.
func OnDevice(dev int) AllocOption {
	return func(o *allocOptions) { o.device = dev }
}

// Mode declares the host's access pattern for the allocation's whole
// lifetime, and the runtime elides the coherence work it proves
// unnecessary under the session's protocol: ReadOnly objects replicate to
// the device once and are never re-fetched or invalidated, and WriteOnly
// objects skip every device-to-host fetch. The zero value ReadWrite is the
// unconstrained default. The per-call ReadOnlyHint overrides the declared
// mode for one kernel call; see docs/access-modes.md.
func Mode(m AccessMode) AllocOption {
	return func(o *allocOptions) { o.mode = m }
}

func resolveAllocOptions(opts []AllocOption) allocOptions {
	o := allocOptions{device: -1}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// callOptions collects the resolved Call options.
type callOptions struct {
	writes   []Ptr
	ro       []Ptr
	annotate bool
	async    bool
}

// CallOption configures one Call.
type CallOption func(*callOptions)

// Writes annotates the kernel call with its write set (§4.3): only the
// objects containing the listed pointers are invalidated on the host, so
// shared data the kernel merely reads stays CPU-valid across the call and
// costs no transfer to read afterwards. It desugars into per-pointer
// read-write access for this call. An object may not be both in the write
// set and hinted read-only (ErrModeViolation).
func Writes(ptrs ...Ptr) CallOption {
	return func(o *callOptions) {
		o.annotate = true
		o.writes = append(o.writes, ptrs...)
	}
}

// ReadOnlyHint declares that the kernel only reads the objects containing
// the listed pointers, for this call: they are not invalidated on the host
// afterwards, even when the call is otherwise unannotated. A per-call hint
// overrides the object's allocation-time Mode for this call only.
func ReadOnlyHint(ptrs ...Ptr) CallOption {
	return func(o *callOptions) { o.ro = append(o.ro, ptrs...) }
}

// Async makes Call return as soon as the kernel is dispatched, without the
// implicit Sync; the caller pairs it with an explicit Session.Sync (the raw
// adsmCall/adsmSync split, for overlapping CPU work with the kernel).
func Async() CallOption {
	return func(o *callOptions) { o.async = true }
}

func resolveCallOptions(opts []CallOption) callOptions {
	var o callOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// sessionCore implements the pointer-routed half of Session once for both
// concrete types: owner resolves the manager hosting a pointer (Context
// returns its only manager; MultiContext searches its managers).
type sessionCore struct {
	m     *machine.Machine
	owner func(p Ptr) *core.Manager
}

// Machine returns the underlying simulated machine.
func (s *sessionCore) Machine() *machine.Machine { return s.m }

// Safe implements adsmSafe: it translates a CPU pointer into the
// accelerator address of the same shared byte.
func (s *sessionCore) Safe(p Ptr) (Ptr, error) {
	mgr := s.owner(p)
	if mgr == nil {
		return 0, fmt.Errorf("gmac: %#x is not shared", uint64(p))
	}
	return mgr.Translate(p)
}

// Free implements adsmFree.
func (s *sessionCore) Free(p Ptr) error {
	mgr := s.owner(p)
	if mgr == nil {
		return fmt.Errorf("gmac: free of unshared %#x", uint64(p))
	}
	return mgr.Free(p)
}

// HostWrite writes src to shared memory through the normal faulting CPU
// path (a plain assignment in application code).
func (s *sessionCore) HostWrite(p Ptr, src []byte) error {
	mgr := s.owner(p)
	if mgr == nil {
		return fmt.Errorf("gmac: write to unshared %#x", uint64(p))
	}
	return mgr.HostWrite(p, src)
}

// HostRead reads shared memory through the normal faulting CPU path.
func (s *sessionCore) HostRead(p Ptr, dst []byte) error {
	mgr := s.owner(p)
	if mgr == nil {
		return fmt.Errorf("gmac: read from unshared %#x", uint64(p))
	}
	return mgr.HostRead(p, dst)
}

// MemcpyToShared copies a host buffer into shared memory using the
// interposed bulk path: data is moved with accelerator copies where the
// current version lives on the device, avoiding page-fault storms.
func (s *sessionCore) MemcpyToShared(dst Ptr, src []byte) error {
	mgr := s.owner(dst)
	if mgr == nil {
		return fmt.Errorf("gmac: memcpy to unshared %#x", uint64(dst))
	}
	s.m.CPUTouch(int64(len(src)))
	return mgr.BulkWrite(dst, src)
}

// MemcpyFromShared copies shared memory into a host buffer.
func (s *sessionCore) MemcpyFromShared(dst []byte, src Ptr) error {
	mgr := s.owner(src)
	if mgr == nil {
		return fmt.Errorf("gmac: memcpy from unshared %#x", uint64(src))
	}
	s.m.CPUTouch(int64(len(dst)))
	return mgr.BulkRead(src, dst)
}

// MemcpyShared copies between two shared objects, possibly hosted by
// different accelerators. Both ranges are checked before anything is
// staged.
func (s *sessionCore) MemcpyShared(dst, src Ptr, n int64) error {
	if n < 0 {
		return fmt.Errorf("gmac: negative memcpy size %d", n)
	}
	if err := s.inObject(src, n); err != nil {
		return err
	}
	if err := s.inObject(dst, n); err != nil {
		return err
	}
	buf := make([]byte, n)
	if err := s.owner(src).BulkRead(src, buf); err != nil {
		return err
	}
	return s.owner(dst).BulkWrite(dst, buf)
}

// Memset fills shared memory, using the accelerator's memset engine for
// whole blocks.
func (s *sessionCore) Memset(p Ptr, b byte, n int64) error {
	mgr := s.owner(p)
	if mgr == nil {
		return fmt.Errorf("gmac: memset of unshared %#x", uint64(p))
	}
	return mgr.BulkSet(p, b, n)
}

// hostBytes exposes the live backing slice for the typed views.
func (s *sessionCore) hostBytes(p Ptr, n int64, access hostmmu.Access) ([]byte, error) {
	mgr := s.owner(p)
	if mgr == nil {
		return nil, fmt.Errorf("gmac: %#x is not shared memory", uint64(p))
	}
	return mgr.HostBytes(p, n, access)
}

// inObject verifies that [p, p+bytes) lies inside one shared object.
func (s *sessionCore) inObject(p Ptr, bytes int64) error {
	mgr := s.owner(p)
	if mgr == nil {
		return fmt.Errorf("gmac: %#x is not shared memory", uint64(p))
	}
	obj := mgr.ObjectAt(p)
	if obj == nil {
		return fmt.Errorf("gmac: %#x is not shared memory", uint64(p))
	}
	if p+Ptr(bytes) > obj.Addr()+Ptr(obj.Size()) {
		return fmt.Errorf("gmac: %d bytes at %#x exceed the object", bytes, uint64(p))
	}
	return nil
}
