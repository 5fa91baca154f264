// Package osabs is the OS abstraction layer of Figure 5: it gives the rest
// of the stack POSIX-shaped file I/O backed by an in-memory filesystem with
// a disk bandwidth/latency model, so the IORead/IOWrite slices of the
// paper's Figure 10 breakdown are reproduced. The GMAC library interposes
// on these calls (package gmac) to support I/O directly into shared
// objects, block by block, as described in Section 4.4.
package osabs

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/fault"
	"repro/internal/interconnect"
	"repro/internal/sim"
)

// ErrNotExist is returned when opening a file that was never created.
var ErrNotExist = errors.New("osabs: file does not exist")

// ErrClosed is returned when using a closed file handle.
var ErrClosed = errors.New("osabs: file handle is closed")

// FS is an in-memory filesystem whose operations cost virtual time
// according to a disk model.
type FS struct {
	files map[string]*inode
	disk  *interconnect.Link
	clock *sim.Clock
	bd    *sim.Breakdown
	stats IOStats
	// inj, when set, is consulted before every Read/Write (I/O fault
	// testing); a faulted operation touches no data.
	inj *fault.Injector
}

type inode struct {
	data []byte
}

// IOStats counts filesystem traffic.
type IOStats struct {
	BytesRead    int64
	BytesWritten int64
	Reads        int64
	Writes       int64
	ReadTime     sim.Time
	WriteTime    sim.Time
}

// NewFS returns an empty filesystem. disk may be nil for a free (zero-cost)
// filesystem, used by unit tests of other layers.
func NewFS(disk *interconnect.Link, clock *sim.Clock, bd *sim.Breakdown) *FS {
	return &FS{files: make(map[string]*inode), disk: disk, clock: clock, bd: bd}
}

// Stats returns a copy of the traffic counters.
func (fs *FS) Stats() IOStats { return fs.stats }

// SetFaultInjector arms the filesystem with a fault injector consulted by
// every Read and Write under fault.OpFileRead/OpFileWrite. Pass nil to
// disarm.
func (fs *FS) SetFaultInjector(in *fault.Injector) { fs.inj = in }

// injectIO consults the injector for one I/O operation; a timeout fault
// charges its delay to the clock before surfacing.
func (fs *FS) injectIO(op fault.Op) error {
	if fs.inj == nil {
		return nil
	}
	err := fs.inj.Decide(op)
	if err == nil {
		return nil
	}
	var fe *fault.Error
	if errors.As(err, &fe) && fe.Delay > 0 && fs.clock != nil {
		fs.clock.Advance(fe.Delay)
	}
	return fmt.Errorf("osabs: %w", err)
}

// Create makes (or truncates) a file and returns a handle positioned at 0.
func (fs *FS) Create(name string) *File {
	ino := &inode{}
	fs.files[name] = ino
	return &File{fs: fs, ino: ino}
}

// CreateWith makes a file with the given contents (workload inputs).
func (fs *FS) CreateWith(name string, data []byte) {
	fs.files[name] = &inode{data: append([]byte(nil), data...)}
}

// Open returns a handle on an existing file, positioned at 0.
func (fs *FS) Open(name string) (*File, error) {
	ino, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return &File{fs: fs, ino: ino}, nil
}

// Size returns a file's length without charging I/O time.
func (fs *FS) Size(name string) (int64, error) {
	ino, ok := fs.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return int64(len(ino.data)), nil
}

// Contents returns a copy of a file's bytes without charging I/O time
// (test and verification helper).
func (fs *FS) Contents(name string) ([]byte, error) {
	ino, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return append([]byte(nil), ino.data...), nil
}

// List returns the names of all files, sorted.
func (fs *FS) List() []string {
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// chargeRead costs a read of n bytes. Sequential continuations (seq) pay
// bandwidth only: the disk head is already positioned and readahead is
// streaming, so splitting one large read into block-sized chunks — as the
// interposed I/O of §4.4 does — costs the same as a single large read.
func (fs *FS) chargeRead(n int64, seq bool) {
	if fs.disk == nil {
		return
	}
	d := fs.disk.TransferTime(n)
	if seq {
		d -= fs.disk.Latency
	}
	fs.clock.Advance(d)
	fs.stats.ReadTime += d
	if fs.bd != nil {
		fs.bd.Add(sim.CatIORead, d)
	}
}

func (fs *FS) chargeWrite(n int64, seq bool) {
	if fs.disk == nil {
		return
	}
	d := fs.disk.TransferTime(n)
	if seq {
		d -= fs.disk.Latency
	}
	fs.clock.Advance(d)
	fs.stats.WriteTime += d
	if fs.bd != nil {
		fs.bd.Add(sim.CatIOWrite, d)
	}
}

// File is an open file handle with a seek position.
type File struct {
	fs     *FS
	ino    *inode
	off    int64
	closed bool
	// seqNext is the offset a sequential continuation would start at; an
	// access elsewhere pays the disk's positioning latency again.
	seqNext int64
	touched bool
}

// Read fills p from the current position, charging disk time. It returns
// io.EOF at end of file like os.File.
func (f *File) Read(p []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if err := f.fs.injectIO(fault.OpFileRead); err != nil {
		return 0, err
	}
	if f.off >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	seq := f.touched && f.off == f.seqNext
	n := copy(p, f.ino.data[f.off:])
	f.off += int64(n)
	f.seqNext = f.off
	f.touched = true
	f.fs.stats.BytesRead += int64(n)
	f.fs.stats.Reads++
	f.fs.chargeRead(int64(n), seq)
	return n, nil
}

// Write appends/overwrites at the current position, charging disk time.
func (f *File) Write(p []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if err := f.fs.injectIO(fault.OpFileWrite); err != nil {
		return 0, err
	}
	end := f.off + int64(len(p))
	if end > int64(len(f.ino.data)) {
		grown := make([]byte, end)
		copy(grown, f.ino.data)
		f.ino.data = grown
	}
	seq := f.touched && f.off == f.seqNext
	copy(f.ino.data[f.off:], p)
	f.off = end
	f.seqNext = f.off
	f.touched = true
	f.fs.stats.BytesWritten += int64(len(p))
	f.fs.stats.Writes++
	f.fs.chargeWrite(int64(len(p)), seq)
	return len(p), nil
}

// Seek repositions the handle like os.File.Seek.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.off
	case io.SeekEnd:
		base = int64(len(f.ino.data))
	default:
		return 0, fmt.Errorf("osabs: bad whence %d", whence)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("osabs: negative seek position %d", pos)
	}
	f.off = pos
	return pos, nil
}

// Close invalidates the handle.
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	return nil
}
