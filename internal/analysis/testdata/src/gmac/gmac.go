// Package gmac is a minimal stand-in for repro/gmac used by the modecheck
// analyzer's golden tests. It has the real API's shape where the analyzer
// looks: Ptr is an alias of a type declared in another package, the
// session methods carry their real parameter lists, and the options are
// package-level functions.
package gmac

import "mem"

// Ptr is a shared-object host pointer.
type Ptr = mem.Addr

// File stands in for the interposed I/O layer's file handle.
type File struct{ fd int }

// CallOption configures a Call.
type CallOption struct{ kind int }

// AllocOption configures an Alloc.
type AllocOption struct{ kind int }

// Async makes a Call return before the kernel completes.
func Async() CallOption { return CallOption{kind: 1} }

// Writes annotates the shared objects the kernel may write.
func Writes(ps ...Ptr) CallOption { return CallOption{kind: 2} }

// WriteOnlyHint marks objects the kernel writes without reading.
func WriteOnlyHint(ps ...Ptr) CallOption { return CallOption{kind: 3} }

// ReadOnlyHint marks objects the kernel only reads.
func ReadOnlyHint(ps ...Ptr) CallOption { return CallOption{kind: 4} }

// AccessMode declares host-side access intent for a shared object.
type AccessMode int

// The declared access modes.
const (
	ModeDefault AccessMode = iota
	ModeReadOnly
	ModeWriteOnly
)

// The short spellings the real API exports.
const (
	ReadOnly  = ModeReadOnly
	WriteOnly = ModeWriteOnly
)

// Mode declares the object's access mode at allocation.
func Mode(m AccessMode) AllocOption { return AllocOption{kind: 2} }

// Safe forces the host-only mapping at allocation.
func Safe() AllocOption { return AllocOption{kind: 3} }

// Context is one host session against one accelerator.
type Context struct{ last Ptr }

// Alloc allocates a shared object.
func (c *Context) Alloc(size int64, opts ...AllocOption) (Ptr, error) { return c.last, nil }

// Free releases a shared object.
func (c *Context) Free(p Ptr) error { return nil }

// Call launches a kernel.
func (c *Context) Call(kernel string, args []uint64, opts ...CallOption) error { return nil }

// Sync waits for every outstanding asynchronous launch.
func (c *Context) Sync() error { return nil }

// Safe translates a shared pointer to its device address.
func (c *Context) Safe(p Ptr) (Ptr, error) { return p, nil }

// HostRead copies shared bytes into host memory.
func (c *Context) HostRead(p Ptr, dst []byte) error { return nil }

// HostWrite copies host memory into a shared object.
func (c *Context) HostWrite(p Ptr, src []byte) error { return nil }

// Memset fills a shared range with a byte.
func (c *Context) Memset(p Ptr, b byte, n int64) error { return nil }

// MemcpyFromShared copies out of a shared object.
func (c *Context) MemcpyFromShared(dst []byte, src Ptr) error { return nil }

// MemcpyToShared copies into a shared object.
func (c *Context) MemcpyToShared(dst Ptr, src []byte) error { return nil }

// MemcpyShared copies between shared objects (dst written, src read).
func (c *Context) MemcpyShared(dst, src Ptr, n int64) error { return nil }

// ReadFile reads from f into shared memory (the interposed read(2)).
func (c *Context) ReadFile(f *File, p Ptr, n int64) (int64, error) { return n, nil }

// WriteFile writes shared memory to f (the interposed write(2)).
func (c *Context) WriteFile(f *File, p Ptr, n int64) (int64, error) { return n, nil }
