// Package hostmmu simulates the host CPU's memory-protection hardware and
// the POSIX signal path GMAC relies on: mprotect sets per-page permission
// bits and any CPU access that violates them is delivered synchronously to
// a registered fault handler, charged with a calibrated signal-delivery
// cost (the "Signal" slice of Figure 10).
//
// The real GMAC catches SIGSEGV; in Go, installing a competing SIGSEGV
// handler conflicts with the runtime, so accesses to shared objects flow
// through accessor views (package gmac) which call CheckRead/CheckWrite
// before touching backing memory. The fault points are identical: first
// read of Invalid data, first write to ReadOnly data.
//
// The read contract: a page's protection changes only under its owner's
// exclusion (GMAC holds the object's lock around every Mprotect and Unmap
// of the object's pages, and around every access check of them), so
// CheckRead and CheckWrite read the page table without a lock. What they
// could otherwise race with — another owner's Map or Unmap adding or
// dropping a granule — is published copy-on-write.
package hostmmu

import (
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Prot is a page protection value, mirroring PROT_NONE / PROT_READ /
// PROT_READ|PROT_WRITE.
type Prot uint8

// Page protection levels.
const (
	ProtNone Prot = iota
	ProtRead
	ProtReadWrite
)

func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "---"
	case ProtRead:
		return "r--"
	case ProtReadWrite:
		return "rw-"
	default:
		return fmt.Sprintf("Prot(%d)", uint8(p))
	}
}

// Access distinguishes read faults from write faults.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
)

func (a Access) String() string {
	if a == AccessWrite {
		return "write"
	}
	return "read"
}

// Fault describes one protection violation delivered to the handler.
type Fault struct {
	Addr   mem.Addr // faulting address (page-aligned down by the handler if desired)
	Access Access
}

// FaultHandler resolves a protection violation. A handler that returns an
// error aborts the access (the process would die with SIGSEGV); a handler
// that returns nil must have upgraded the page permissions so the access
// can be retried.
type FaultHandler func(Fault) error

// ErrSegfault is returned when an access violates protections and no
// handler is installed, or the handler declines to resolve the fault.
var ErrSegfault = errors.New("hostmmu: segmentation fault")

// ErrUnmapped is returned when an access touches a page that was never
// mapped through the MMU.
var ErrUnmapped = errors.New("hostmmu: access to unmapped page")

// ErrFaultLoop is returned when the handler keeps failing to make progress
// on the same page.
var ErrFaultLoop = errors.New("hostmmu: fault handler made no progress")

// Stats counts MMU activity for the experiment reports.
type Stats struct {
	Faults      int64 // protection faults delivered
	ReadFaults  int64
	WriteFaults int64
	Mprotects   int64
	SignalTime  sim.Time // accumulated signal-delivery cost
}

// Page-table sharding. The page table is split into mmuShards
// address-range shards — the same 1 MiB-granule Fibonacci hash the core
// registry shards by, so a lane's working set and its neighbour's land on
// different shards — and each writer locks only the shard of the pages it
// changes. A page larger than 1 MiB is its own granule.
const (
	mmuShardBits    = 4
	mmuShardCount   = 1 << mmuShardBits
	mmuGranuleBits  = 20
	mmuGranuleBytes = 1 << mmuGranuleBits
)

// protUnmapped marks a page of a granule that is not mapped.
const protUnmapped Prot = 0xff

// granule is the page table of one granule: one protection per page, and
// how many of them are mapped.
type granule struct {
	live int
	prot []Prot
}

// mmuShard is one slice of the page table, keyed by granule base. Writers
// (Map, Unmap, Mprotect) and Protection serialise on mu. The access check
// takes no lock: it reads view, a copy of granules that a writer publishes
// whenever it adds or drops a granule, and the granule's protections,
// which only the pages' owner changes.
type mmuShard struct {
	mu       sync.Mutex
	granules map[mem.Addr]*granule
	view     atomic.Pointer[map[mem.Addr]*granule]
}

// publish makes the current granule set visible to the access check. The
// caller holds sh.mu.
func (sh *mmuShard) publish() {
	v := maps.Clone(sh.granules)
	sh.view.Store(&v)
}

// run locates the granule run [p, min(end, granule end)): its shard, its
// granule base, and the page indices [lo, hi) it covers. Pages past end's
// page base are included, as the size of a range rounds up to whole pages.
func (m *MMU) run(p, end mem.Addr) (sh *mmuShard, base mem.Addr, lo, hi int) {
	base = p &^ (m.granuleSize - 1)
	stop := min(end-base, m.granuleSize)
	g := uint64(base) >> mmuGranuleBits
	sh = &m.shards[(g*0x9e3779b97f4a7c15)>>(64-mmuShardBits)]
	return sh, base, int((p - base) >> m.pageShift), int((stop + mem.Addr(m.pageSize) - 1) >> m.pageShift)
}

// mapped reports whether every page of [lo, hi) of g is mapped.
func (g *granule) mapped(lo, hi int) bool {
	if g == nil {
		return false
	}
	for i := lo; i < hi && g.live < len(g.prot); i++ {
		if g.prot[i] == protUnmapped {
			return false
		}
	}
	return true
}

// MMU is the software memory-protection unit. All times are charged to the
// virtual clock; the breakdown receives the Signal category.
//
// The MMU is safe for concurrent use under the package's read contract:
// protection checks read the sharded page table without a lock while
// another goroutine maps, re-protects or unmaps other owners' pages, even
// in the same granule. Fault delivery runs with no MMU lock held (the
// handler re-enters via Mprotect), exactly as a real kernel delivers
// signals outside the page-table spinlock. Shard locks are taken one at a
// time, never nested.
type MMU struct {
	pageSize    int64
	pageShift   uint8
	granuleSize mem.Addr // max(1 MiB, page size)
	shards      [mmuShardCount]mmuShard
	handler     atomic.Pointer[FaultHandler]
	clock       *sim.Clock
	breakdown   *sim.Breakdown
	signalCost  sim.Time // cost of one fault delivery (kernel + user handler entry)

	// Counters are plain atomics: fault delivery is the hot path and must
	// not serialise concurrent faulting goroutines on a stats lock. A fault
	// is counted once, by access kind; the total and the signal time are
	// derived from the two.
	readFaults  atomic.Int64
	writeFaults atomic.Int64
	mprotects   atomic.Int64
}

// Config parameterises the MMU.
type Config struct {
	PageSize   int64    // must be a power of two
	SignalCost sim.Time // per-fault delivery cost
}

// New returns an MMU with no pages mapped.
func New(cfg Config, clock *sim.Clock, breakdown *sim.Breakdown) *MMU {
	if cfg.PageSize <= 0 || cfg.PageSize&(cfg.PageSize-1) != 0 {
		panic(fmt.Sprintf("hostmmu: page size %d is not a power of two", cfg.PageSize))
	}
	m := &MMU{
		pageSize:    cfg.PageSize,
		pageShift:   uint8(bits.TrailingZeros64(uint64(cfg.PageSize))),
		granuleSize: mem.Addr(max(cfg.PageSize, mmuGranuleBytes)),
		clock:       clock,
		breakdown:   breakdown,
		signalCost:  cfg.SignalCost,
	}
	for i := range m.shards {
		m.shards[i].granules = make(map[mem.Addr]*granule)
		m.shards[i].publish()
	}
	return m
}

// PageSize returns the MMU page size.
func (m *MMU) PageSize() int64 { return m.pageSize }

// SetHandler installs the fault handler (GMAC's signal handler).
func (m *MMU) SetHandler(h FaultHandler) {
	if h == nil {
		m.handler.Store(nil)
		return
	}
	m.handler.Store(&h)
}

// Stats returns a copy of the accumulated counters.
func (m *MMU) Stats() Stats {
	s := Stats{
		ReadFaults:  m.readFaults.Load(),
		WriteFaults: m.writeFaults.Load(),
		Mprotects:   m.mprotects.Load(),
	}
	s.Faults = s.ReadFaults + s.WriteFaults
	s.SignalTime = sim.Time(s.Faults) * m.signalCost
	return s
}

func (m *MMU) pageBase(addr mem.Addr) mem.Addr {
	return addr &^ mem.Addr(m.pageSize-1)
}

// Map registers [addr, addr+size) with the given protection. Addr must be
// page-aligned; size is rounded up to whole pages.
func (m *MMU) Map(addr mem.Addr, size int64, prot Prot) {
	if addr != m.pageBase(addr) {
		panic(fmt.Sprintf("hostmmu: unaligned map at %#x", uint64(addr)))
	}
	end := addr + mem.Addr(size)
	for p := addr; p < end; {
		sh, base, lo, hi := m.run(p, end)
		sh.mu.Lock()
		g := sh.granules[base]
		if g == nil {
			g = &granule{prot: make([]Prot, m.granuleSize>>m.pageShift)}
			for i := range g.prot {
				g.prot[i] = protUnmapped
			}
			sh.granules[base] = g
			sh.publish()
		}
		for i := lo; i < hi; i++ {
			if g.prot[i] == protUnmapped {
				g.live++
			}
			g.prot[i] = prot
		}
		sh.mu.Unlock()
		p = base + mem.Addr(hi)<<m.pageShift
	}
}

// Unmap removes [addr, addr+size) from the page table.
func (m *MMU) Unmap(addr mem.Addr, size int64) {
	if addr != m.pageBase(addr) {
		panic(fmt.Sprintf("hostmmu: unaligned unmap at %#x", uint64(addr)))
	}
	end := addr + mem.Addr(size)
	for p := addr; p < end; {
		sh, base, lo, hi := m.run(p, end)
		sh.mu.Lock()
		if g := sh.granules[base]; g != nil {
			for i := lo; i < hi; i++ {
				if g.prot[i] != protUnmapped {
					g.live--
					g.prot[i] = protUnmapped
				}
			}
			if g.live == 0 {
				delete(sh.granules, base)
				sh.publish()
			}
		}
		sh.mu.Unlock()
		p = base + mem.Addr(hi)<<m.pageShift
	}
}

// Mprotect changes the protection of [addr, addr+size). All pages in the
// range must be mapped; if one is not, no page changes and an error is
// returned: a range over several granules is checked whole before any
// page is written. The caller excludes a concurrent Unmap of the range
// (GMAC holds the object's lock), so the check still holds at the write.
//
//adsm:noalloc
func (m *MMU) Mprotect(addr mem.Addr, size int64, prot Prot) error {
	base := m.pageBase(addr)
	end := addr + mem.Addr(size)
	for write := (end-1)^base < m.granuleSize; ; write = true {
		for p := base; p < end; {
			sh, gb, lo, hi := m.run(p, end)
			sh.mu.Lock()
			g := sh.granules[gb]
			ok := g.mapped(lo, hi)
			if ok && write {
				fill(g.prot[lo:hi], prot)
			}
			sh.mu.Unlock()
			if !ok {
				return errMprotectUnmapped(p)
			}
			p = gb + mem.Addr(hi)<<m.pageShift
		}
		if write {
			break
		}
	}
	m.mprotects.Add(1)
	return nil
}

// fill sets every page of s to prot, doubling the filled prefix with each
// copy: a range of n pages takes log2(n) memmoves, not n stores.
//
//adsm:noalloc
func fill(s []Prot, prot Prot) {
	if len(s) == 0 {
		return
	}
	s[0] = prot
	for n := 1; n < len(s); n *= 2 {
		copy(s[n:], s[:n])
	}
}

// errMprotectUnmapped formats the failed Mprotect error off the hot path.
//
//adsm:cold
func errMprotectUnmapped(p mem.Addr) error {
	return fmt.Errorf("%w: mprotect %#x", ErrUnmapped, uint64(p))
}

// Protection returns the protection of the page containing addr, and
// whether that page is mapped.
func (m *MMU) Protection(addr mem.Addr) (Prot, bool) {
	sh, base, lo, _ := m.run(m.pageBase(addr), m.pageBase(addr)+1)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if g := sh.granules[base]; g != nil && g.prot[lo] != protUnmapped {
		return g.prot[lo], true
	}
	return ProtNone, false
}

// CheckRead walks the pages covering [addr, addr+size) and delivers a
// read fault for every page that does not permit reads. It returns once
// the whole range is readable.
func (m *MMU) CheckRead(addr mem.Addr, size int64) error {
	return m.check(addr, size, AccessRead)
}

// CheckWrite is CheckRead for write access.
func (m *MMU) CheckWrite(addr mem.Addr, size int64) error {
	return m.check(addr, size, AccessWrite)
}

func (m *MMU) check(addr mem.Addr, size int64, access Access) error {
	if size < 0 {
		return fmt.Errorf("hostmmu: negative access size %d", size)
	}
	need := ProtRead
	if access == AccessWrite {
		need = ProtReadWrite
	}
	end := addr + mem.Addr(size)
	// A real CPU re-executes the faulting instruction after the handler
	// returns, so a denied page is retried until it permits the access;
	// the handler must make progress or we report a fault loop.
	for page, tries := m.pageBase(addr), 0; page < end; {
		sh, base, lo, hi := m.run(page, end)
		prot := protUnmapped
		i := lo
		if g := (*sh.view.Load())[base]; g != nil { // a Prot permits what those below it do
			for i < hi && g.prot[i] >= need && g.prot[i] != protUnmapped {
				i++
			}
			if i < hi {
				prot = g.prot[i]
			}
		}
		if i > lo {
			page, tries = base+mem.Addr(i)<<m.pageShift, 0
			continue
		}
		if prot == protUnmapped {
			return fmt.Errorf("%w: %#x", ErrUnmapped, uint64(page))
		}
		if tries >= 2 {
			return fmt.Errorf("%w: page %#x stuck at %s for %s",
				ErrFaultLoop, uint64(page), prot, access)
		}
		if err := m.deliver(Fault{Addr: page, Access: access}); err != nil {
			return err
		}
		tries++
	}
	return nil
}

// deliver runs the fault handler with no MMU lock held: the handler
// re-enters the MMU through Mprotect to upgrade the page.
func (m *MMU) deliver(f Fault) error {
	if f.Access == AccessWrite {
		m.writeFaults.Add(1)
	} else {
		m.readFaults.Add(1)
	}
	m.clock.Advance(m.signalCost)
	if m.breakdown != nil {
		m.breakdown.Add(sim.CatSignal, m.signalCost)
	}
	hp := m.handler.Load()
	if hp == nil {
		return fmt.Errorf("%w: %s at %#x (no handler)", ErrSegfault, f.Access, uint64(f.Addr))
	}
	if err := (*hp)(f); err != nil {
		return fmt.Errorf("%w: %s at %#x: %w", ErrSegfault, f.Access, uint64(f.Addr), err)
	}
	return nil
}
