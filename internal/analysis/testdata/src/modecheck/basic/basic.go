// Package basic exercises the modecheck analyzer: host accesses that
// violate the declared gmac access mode, async host reads before Sync, and
// stale Safe pointers — directly, through local helper chains, and through
// a sibling-package helper.
package basic

import (
	"gmac"

	"modecheck/basic/helper"
)

// hostWriteReadOnly writes a ReadOnly object from the host.
func hostWriteReadOnly(s *gmac.Context, src []byte) {
	p, _ := s.Alloc(64, gmac.Mode(gmac.ReadOnly))
	s.HostWrite(p, src) // want `HostWrite writes p, which is allocated gmac\.ReadOnly at basic\.go:\d+; writes to ReadOnly objects fail with ErrModeViolation`
}

// readFileReadOnly lands an interposed read(2) in a ReadOnly object: a
// host write like any other.
func readFileReadOnly(s *gmac.Context, f *gmac.File) {
	p, _ := s.Alloc(64, gmac.Mode(gmac.ReadOnly))
	s.ReadFile(f, p, 64) // want `ReadFile writes p, which is allocated gmac\.ReadOnly at basic\.go:\d+; writes to ReadOnly objects fail with ErrModeViolation`
}

// kernelWritesReadOnly declares a kernel write of a ReadOnly object.
func kernelWritesReadOnly(s *gmac.Context) {
	p, _ := s.Alloc(64, gmac.Mode(gmac.ReadOnly))
	s.Call("k", nil, gmac.Writes(p)) // want `kernel declares Writes\(p\), but p is allocated gmac\.ReadOnly at basic\.go:\d+; ReadOnly objects are sealed after their first release \(ErrModeViolation at run time\)`
}

// readWriteOnlyUnwritten reads a WriteOnly object before anything has
// written it.
func readWriteOnlyUnwritten(s *gmac.Context, buf []byte) {
	p, _ := s.Alloc(64, gmac.Mode(gmac.WriteOnly))
	s.HostRead(p, buf) // want `HostRead reads p, which is allocated gmac\.WriteOnly at basic\.go:\d+ and not yet written; reads of WriteOnly objects fail with ErrModeViolation`
}

// writeFileWriteOnlyUnwritten writes an unwritten WriteOnly object to a
// file: the interposed write(2) reads it.
func writeFileWriteOnlyUnwritten(s *gmac.Context, f *gmac.File) {
	p, _ := s.Alloc(64, gmac.Mode(gmac.WriteOnly))
	s.WriteFile(f, p, 64) // want `WriteFile reads p, which is allocated gmac\.WriteOnly at basic\.go:\d+ and not yet written; reads of WriteOnly objects fail with ErrModeViolation`
}

// readWriteOnlyWritten is the fixed variant: a kernel write populates the
// object before the host read.
func readWriteOnlyWritten(s *gmac.Context, buf []byte) {
	p, _ := s.Alloc(64, gmac.Mode(gmac.WriteOnly))
	s.Call("fill", nil, gmac.Writes(p))
	s.HostRead(p, buf)
}

// scrubReadOnly reaches a Memset of a ReadOnly object through two local
// helpers: the diagnostic chain must render both frames.
func scrubReadOnly(s *gmac.Context) {
	p, _ := s.Alloc(64, gmac.Mode(gmac.ReadOnly))
	scrub(s, p) // want `Memset writes p, which is allocated gmac\.ReadOnly at basic\.go:\d+; writes to ReadOnly objects fail with ErrModeViolation \(via basic\.scrub at basic\.go:\d+ -> basic\.wipe at basic\.go:\d+\)`
}

func scrub(s *gmac.Context, p gmac.Ptr) {
	wipe(s, p)
}

func wipe(s *gmac.Context, p gmac.Ptr) {
	s.Memset(p, 0, 64)
}

// fillReadOnly writes a ReadOnly object through the sibling-package
// helper: the effect crosses the package boundary via its summary.
func fillReadOnly(s *gmac.Context) {
	p, _ := s.Alloc(64, gmac.Mode(gmac.ReadOnly))
	helper.Fill(s, p, 1) // want `Memset writes p, which is allocated gmac\.ReadOnly at basic\.go:\d+; writes to ReadOnly objects fail with ErrModeViolation \(via helper\.Fill at basic\.go:\d+\)`
}

// fillDefault is the same call on a mode-less allocation: fine.
func fillDefault(s *gmac.Context) {
	p, _ := s.Alloc(64)
	helper.Fill(s, p, 1)
}

// asyncThenRead: after an unannotated async launch every host read may
// observe stale data, whichever pointer it reads, until Sync.
func asyncThenRead(ctx *gmac.Context, p gmac.Ptr, buf []byte, f *gmac.File) {
	_ = ctx.Call("saxpy", nil, gmac.Async())
	_ = ctx.HostRead(p, buf)           // want `HostRead reads p while the async kernel launched at basic\.go:\d+ may still be writing it; Sync first`
	_, _ = ctx.WriteFile(f, p, 4)      // want `WriteFile reads p while the async kernel launched at basic\.go:\d+ may still be writing it; Sync first`
	_ = ctx.MemcpyFromShared(buf, p+4) // want `MemcpyFromShared reads p \+ 4 while the async kernel launched`
	_ = ctx.HostWrite(p, buf)          // a write is no read: fine
	_ = ctx.Sync()
	_ = ctx.HostRead(p, buf) // after Sync: fine
}

// asyncWithWrites: only the annotated written pointers taint reads.
func asyncWithWrites(ctx *gmac.Context, p, q gmac.Ptr, buf []byte) {
	_ = ctx.Call("saxpy", nil, gmac.Async(), gmac.Writes(p))
	_ = ctx.HostRead(q, buf) // q is not written: fine
	_ = ctx.HostRead(p, buf) // want `HostRead reads p while the async kernel launched at basic\.go:\d+ may still be writing it; Sync first`
}

// syncCallIsBarrier: a synchronous Call ends in Sync, completing earlier
// async launches.
func syncCallIsBarrier(ctx *gmac.Context, p gmac.Ptr, buf []byte) {
	_ = ctx.Call("saxpy", nil, gmac.Async())
	_ = ctx.Call("saxpy", nil)
	_ = ctx.HostRead(p, buf) // fine: the synchronous Call drained the queue
}

// asyncReadViaHelper reads, through a helper, an object an async kernel
// may still be writing.
func asyncReadViaHelper(s *gmac.Context) {
	p, _ := s.Alloc(64)
	s.Call("k", nil, gmac.Writes(p), gmac.Async())
	checksum(s, p) // want `HostRead reads p while the async kernel launched at basic\.go:\d+ may still be writing it; Sync first \(via basic\.checksum at basic\.go:\d+\)`
}

// asyncReadSynced is the fixed variant: Sync lands the kernel's writes
// before the helper reads.
func asyncReadSynced(s *gmac.Context) {
	p, _ := s.Alloc(64)
	s.Call("k", nil, gmac.Writes(p), gmac.Async())
	s.Sync()
	checksum(s, p)
}

func checksum(s *gmac.Context, p gmac.Ptr) byte {
	b := make([]byte, 64)
	s.HostRead(p, b)
	var x byte
	for _, c := range b {
		x ^= c
	}
	return x
}

// staleSafe: a Safe pointer saved across a launch must be re-acquired.
// Passing dp *into* the Call is fine (arguments are read before the launch
// takes effect); using it afterwards is not.
func staleSafe(ctx *gmac.Context, p gmac.Ptr) uint64 {
	dp, _ := ctx.Safe(p)
	_ = ctx.Call("saxpy", []uint64{uint64(dp)})
	return uint64(dp) // want `dp holds a Safe\(\) pointer acquired before the Call at basic\.go:\d+; kernel launches may migrate the object — re-acquire with Safe\(\)`
}

// reacquiredSafe: re-acquiring after the launch resets tracking.
func reacquiredSafe(ctx *gmac.Context, p gmac.Ptr) uint64 {
	dp, _ := ctx.Safe(p)
	_ = ctx.Call("saxpy", []uint64{uint64(dp)})
	dp, _ = ctx.Safe(p)
	return uint64(dp) // fine: fresh translation
}

// staleSafeInClosure: function literals are checked as functions of their
// own.
func staleSafeInClosure(ctx *gmac.Context, p gmac.Ptr) func() uint64 {
	return func() uint64 {
		dp, _ := ctx.Safe(p)
		_ = ctx.Call("saxpy", nil, gmac.Async())
		return uint64(dp) // want `dp holds a Safe\(\) pointer acquired before the Call`
	}
}

// reassigned aliases the pointer before the write: tracking stops and
// nothing is reported (the analyzer is deliberately first-order).
func reassigned(s *gmac.Context, src []byte) gmac.Ptr {
	p, _ := s.Alloc(64, gmac.Mode(gmac.ReadOnly))
	q := p
	s.HostWrite(q, src)
	return q
}
