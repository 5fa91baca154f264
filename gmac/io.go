package gmac

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/osabs"
)

// This file implements the interposed I/O path of Section 4.4: read() and
// write() calls whose buffer is a shared object are performed in
// block-sized chunks through the normal faulting access path, so an
// ongoing system call is never aborted by a mid-transfer page fault. The
// programmer sees the illusion of peer DMA — shared pointers go straight
// into I/O calls — while the implementation stages each chunk through
// system memory, exactly like the paper's GMAC. On machines with hardware
// peer DMA the staging copy is skipped and chunks land directly in
// accelerator memory.

// ioChunk is the chunk size of interposed I/O.
const ioChunk = 256 << 10

// ioBufPool recycles the chunk-sized staging buffers of ReadFile/WriteFile:
// I/O-heavy workloads (the mri benchmarks stream their whole input through
// here) would otherwise allocate 256 KiB per call. It holds pointers, so a
// Put does not allocate.
var ioBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, ioChunk)
		return &b
	},
}

// ReadFile reads up to n bytes from f into shared memory at p, returning
// the number of bytes read. It is the interposed read(2); in a
// multi-device session the data lands on the device hosting p.
func (s *sessionCore) ReadFile(f *osabs.File, p Ptr, n int64) (int64, error) {
	mgr := s.owner(p)
	if mgr == nil || !mgr.IsShared(p) {
		return 0, fmt.Errorf("gmac: ReadFile target %#x is not shared (use f.Read directly)", uint64(p))
	}
	bp := ioBufPool.Get().(*[]byte)
	defer ioBufPool.Put(bp)
	buf := *bp
	var total int64
	for total < n {
		want := min(n-total, ioChunk)
		got, err := f.Read(buf[:want])
		if got == 0 && err == nil {
			// A conforming reader never returns (0, nil) before EOF;
			// surface it instead of spinning forever.
			return total, io.ErrNoProgress
		}
		if got > 0 {
			var werr error
			if s.m.Config().PeerDMA {
				// Hardware peer DMA: the chunk lands in accelerator
				// memory without staging through the host copy.
				werr = mgr.PeerWrite(p+Ptr(total), buf[:got])
			} else {
				werr = mgr.HostWrite(p+Ptr(total), buf[:got])
			}
			if werr != nil {
				return total, werr
			}
			total += int64(got)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// WriteFile writes n bytes of shared memory at p into f, returning the
// number of bytes written. It is the interposed write(2). Blocks whose
// current version lives on the accelerator are fetched on demand by the
// fault handler, so writing kernel output to disk needs no explicit copy.
func (s *sessionCore) WriteFile(f *osabs.File, p Ptr, n int64) (int64, error) {
	mgr := s.owner(p)
	if mgr == nil || !mgr.IsShared(p) {
		return 0, fmt.Errorf("gmac: WriteFile source %#x is not shared (use f.Write directly)", uint64(p))
	}
	bp := ioBufPool.Get().(*[]byte)
	defer ioBufPool.Put(bp)
	buf := *bp
	var total int64
	for total < n {
		want := min(n-total, ioChunk)
		var rerr error
		if s.m.Config().PeerDMA {
			rerr = mgr.PeerRead(p+Ptr(total), buf[:want])
		} else {
			rerr = mgr.HostRead(p+Ptr(total), buf[:want])
		}
		if rerr != nil {
			return total, rerr
		}
		wrote, err := f.Write(buf[:want])
		total += int64(wrote)
		if err == nil && int64(wrote) < want {
			// Short write with no error: report it rather than silently
			// re-reading the same shared range out of order.
			err = io.ErrShortWrite
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
