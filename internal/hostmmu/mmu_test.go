package hostmmu

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/sim"
)

func newMMU(t *testing.T) (*MMU, *sim.Clock, *sim.Breakdown) {
	t.Helper()
	clock := sim.NewClock()
	bd := sim.NewBreakdown()
	m := New(Config{PageSize: 4096, SignalCost: 3 * sim.Microsecond}, clock, bd)
	return m, clock, bd
}

func TestMapAndAccess(t *testing.T) {
	m, _, _ := newMMU(t)
	m.Map(0x1000, 8192, ProtReadWrite)
	if err := m.CheckRead(0x1000, 8192); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckWrite(0x2fff, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckRead(0x3000, 1); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("access past mapping: %v", err)
	}
}

func TestUnalignedMapPanics(t *testing.T) {
	m, _, _ := newMMU(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned Map did not panic")
		}
	}()
	m.Map(0x1001, 4096, ProtRead)
}

func TestReadOnlyWriteFaults(t *testing.T) {
	m, clock, bd := newMMU(t)
	m.Map(0x1000, 4096, ProtRead)

	var got []Fault
	m.SetHandler(func(f Fault) error {
		got = append(got, f)
		return m.Mprotect(f.Addr, 1, ProtReadWrite)
	})

	if err := m.CheckRead(0x1000, 4096); err != nil {
		t.Fatalf("read of read-only page faulted: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("read delivered %d faults", len(got))
	}
	if err := m.CheckWrite(0x1800, 4); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Access != AccessWrite || got[0].Addr != 0x1000 {
		t.Fatalf("faults = %+v", got)
	}
	// Permission upgraded: second write silent.
	if err := m.CheckWrite(0x1000, 8); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("second write faulted again: %d faults", len(got))
	}
	// Signal cost charged to clock and breakdown.
	if clock.Now() != 3*sim.Microsecond {
		t.Fatalf("clock = %v, want 3us", clock.Now())
	}
	if bd.Get(sim.CatSignal) != 3*sim.Microsecond {
		t.Fatalf("signal breakdown = %v", bd.Get(sim.CatSignal))
	}
	st := m.Stats()
	if st.Faults != 1 || st.WriteFaults != 1 || st.ReadFaults != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProtNoneReadFaults(t *testing.T) {
	m, _, _ := newMMU(t)
	m.Map(0x1000, 4096, ProtNone)
	m.SetHandler(func(f Fault) error {
		if f.Access != AccessRead {
			t.Fatalf("fault access = %v", f.Access)
		}
		return m.Mprotect(f.Addr, 1, ProtRead)
	})
	if err := m.CheckRead(0x1004, 4); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.ReadFaults != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMultiPageAccessFaultsPerPage(t *testing.T) {
	m, _, _ := newMMU(t)
	m.Map(0x0, 4*4096, ProtNone)
	n := 0
	m.SetHandler(func(f Fault) error {
		n++
		return m.Mprotect(f.Addr, 1, ProtReadWrite)
	})
	// Access spanning pages 1,2,3 (not 0).
	if err := m.CheckWrite(0x1ff0, 2*4096); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("delivered %d faults, want 3 (one per touched page)", n)
	}
}

func TestNoHandlerSegfaults(t *testing.T) {
	m, _, _ := newMMU(t)
	m.Map(0x1000, 4096, ProtNone)
	if err := m.CheckRead(0x1000, 1); !errors.Is(err, ErrSegfault) {
		t.Fatalf("want ErrSegfault, got %v", err)
	}
}

func TestHandlerErrorSegfaults(t *testing.T) {
	m, _, _ := newMMU(t)
	m.Map(0x1000, 4096, ProtNone)
	m.SetHandler(func(Fault) error { return errors.New("nope") })
	if err := m.CheckWrite(0x1000, 1); !errors.Is(err, ErrSegfault) {
		t.Fatalf("want ErrSegfault, got %v", err)
	}
}

func TestHandlerNoProgressDetected(t *testing.T) {
	m, _, _ := newMMU(t)
	m.Map(0x1000, 4096, ProtNone)
	m.SetHandler(func(Fault) error { return nil }) // claims success, does nothing
	if err := m.CheckRead(0x1000, 1); !errors.Is(err, ErrFaultLoop) {
		t.Fatalf("want ErrFaultLoop, got %v", err)
	}
}

func TestMprotectUnmapped(t *testing.T) {
	m, _, _ := newMMU(t)
	if err := m.Mprotect(0x1000, 4096, ProtRead); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("mprotect of unmapped range: %v", err)
	}
}

func TestMprotectPartialRange(t *testing.T) {
	m, _, _ := newMMU(t)
	m.Map(0x0, 4*4096, ProtReadWrite)
	// Protect the middle two pages.
	if err := m.Mprotect(0x1000, 2*4096, ProtNone); err != nil {
		t.Fatal(err)
	}
	if p, _ := m.Protection(0x0); p != ProtReadWrite {
		t.Fatalf("page 0 = %v", p)
	}
	if p, _ := m.Protection(0x1000); p != ProtNone {
		t.Fatalf("page 1 = %v", p)
	}
	if p, _ := m.Protection(0x2fff); p != ProtNone {
		t.Fatalf("page 2 = %v", p)
	}
	if p, _ := m.Protection(0x3000); p != ProtReadWrite {
		t.Fatalf("page 3 = %v", p)
	}
}

// TestMprotectFillsExactRange: an Mprotect of pages [lo, hi) sets exactly
// those pages, for ranges of every length the doubling fill treats apart
// (one page, a power of two and one past it) and ranges over several
// 1 MiB granules, starting and ending inside a granule.
func TestMprotectFillsExactRange(t *testing.T) {
	const page, base, pages = 4096, 0xf_c000, 4 << 20 / 4096
	for _, r := range []struct{ lo, n int }{
		{0, 1}, {7, 2}, {9, 3}, {100, 64}, {100, 65}, {200, 255},
		{4, 256}, {250, 257}, {10, pages - 20}, {0, pages},
	} {
		t.Run(fmt.Sprintf("pages %d+%d", r.lo, r.n), func(t *testing.T) {
			m, _, _ := newMMU(t)
			m.Map(base, pages*page, ProtRead)
			if err := m.Mprotect(base+mem.Addr(r.lo*page), int64(r.n*page), ProtReadWrite); err != nil {
				t.Fatal(err)
			}
			for i := range pages {
				want := ProtRead
				if i >= r.lo && i < r.lo+r.n {
					want = ProtReadWrite
				}
				if got, ok := m.Protection(base + mem.Addr(i*page)); !ok || got != want {
					t.Fatalf("page %d: %v (mapped %v), want %v", i, got, ok, want)
				}
			}
		})
	}
}

func TestUnmap(t *testing.T) {
	m, _, _ := newMMU(t)
	m.Map(0x1000, 8192, ProtReadWrite)
	m.Unmap(0x1000, 4096)
	if err := m.CheckRead(0x1000, 1); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("read of unmapped page: %v", err)
	}
	if err := m.CheckRead(0x2000, 1); err != nil {
		t.Fatalf("second page should remain mapped: %v", err)
	}
}

func TestZeroSizeAccess(t *testing.T) {
	m, _, _ := newMMU(t)
	if err := m.CheckRead(0x1000, 0); err != nil {
		t.Fatalf("zero-size access should succeed: %v", err)
	}
	if err := m.CheckRead(0x1000, -1); err == nil {
		t.Fatal("negative size should fail")
	}
}

func TestMprotectUnalignedStartRoundsDown(t *testing.T) {
	// GMAC mprotects block ranges whose start may fall mid-page; the MMU
	// rounds down to the page base like the syscall does.
	m, _, _ := newMMU(t)
	m.Map(0x0, 2*4096, ProtReadWrite)
	if err := m.Mprotect(0x1800, 4, ProtNone); err != nil {
		t.Fatal(err)
	}
	if p, _ := m.Protection(0x1000); p != ProtNone {
		t.Fatalf("page base protection = %v, want ---", p)
	}
}

func TestProtString(t *testing.T) {
	if ProtNone.String() != "---" || ProtRead.String() != "r--" || ProtReadWrite.String() != "rw-" {
		t.Fatal("Prot.String values changed")
	}
	if AccessRead.String() != "read" || AccessWrite.String() != "write" {
		t.Fatal("Access.String values changed")
	}
}

func TestFaultCountsAndMprotectStats(t *testing.T) {
	m, _, _ := newMMU(t)
	m.Map(0x0, 4096, ProtNone)
	m.SetHandler(func(f Fault) error { return m.Mprotect(f.Addr, 1, ProtReadWrite) })
	_ = m.CheckWrite(0x10, 4)
	st := m.Stats()
	if st.Mprotects != 1 || st.Faults != 1 || st.SignalTime != 3*sim.Microsecond {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPageBaseArithmetic(t *testing.T) {
	m, _, _ := newMMU(t)
	m.Map(0x2000, 4096, ProtRead)
	if _, ok := m.Protection(0x2abc); !ok {
		t.Fatal("interior address not attributed to its page")
	}
	if _, ok := m.Protection(mem.Addr(0x3000)); ok {
		t.Fatal("next page reported mapped")
	}
}

// TestMMUConcurrentLanes hammers the sharded page table from several
// goroutines working disjoint granule-spaced ranges — map, mprotect, check,
// unmap — while each lane also probes a neighbour's range. Run under -race
// this is the interleaving test for the per-shard locking; the final state
// check catches lost updates.
func TestMMUConcurrentLanes(t *testing.T) {
	m, _, _ := newMMU(t)
	const (
		lanes = 8
		pages = 64
	)
	laneBase := func(l int) mem.Addr {
		// Spread lanes two granules apart so neighbours mostly live in
		// different shards, and give each lane a range that straddles a
		// granule boundary to exercise the per-granule lock runs.
		return mem.Addr(0x4000_0000) + mem.Addr(l)<<(mmuGranuleBits+1) + (mmuGranuleBytes - 16*4096)
	}
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			base := laneBase(l)
			m.Map(base, pages*4096, ProtReadWrite)
			for i := 0; i < pages; i++ {
				p := base + mem.Addr(i*4096)
				if err := m.Mprotect(p, 4096, ProtRead); err != nil {
					t.Errorf("lane %d mprotect: %v", l, err)
					return
				}
				if err := m.CheckRead(p, 4096); err != nil {
					t.Errorf("lane %d read: %v", l, err)
					return
				}
				// A neighbour's page: mapped with some protection or not
				// mapped yet — either way no torn state.
				m.Protection(laneBase((l+1)%lanes) + mem.Addr(i*4096))
			}
			// Drop the second half of the range; the first half survives.
			m.Unmap(base+pages/2*4096, pages/2*4096)
		}(l)
	}
	wg.Wait()
	for l := 0; l < lanes; l++ {
		base := laneBase(l)
		for i := 0; i < pages; i++ {
			prot, ok := m.Protection(base + mem.Addr(i*4096))
			if i < pages/2 && (!ok || prot != ProtRead) {
				t.Fatalf("lane %d page %d: prot=%v ok=%v, want ProtRead", l, i, prot, ok)
			}
			if i >= pages/2 && ok {
				t.Fatalf("lane %d page %d still mapped after Unmap", l, i)
			}
		}
	}
}

// TestCheckTakesNoShardLock pins the lock-free access check: with the
// page's shard lock held elsewhere, checking a mapped, permitted page still
// returns.
func TestCheckTakesNoShardLock(t *testing.T) {
	m, _, _ := newMMU(t)
	const addr = mem.Addr(0x10_0000)
	m.Map(addr, 2*4096, ProtRead)
	if err := m.Mprotect(addr+4096, 4096, ProtReadWrite); err != nil {
		t.Fatal(err)
	}
	sh, _, _, _ := m.run(addr, addr+1)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		err := m.CheckRead(addr, 2*4096)
		if err == nil {
			err = m.CheckWrite(addr+4096, 4096)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("CheckRead/CheckWrite waited for the shard lock")
	}
}

// TestCheckBesideNeighbourMaps runs one owner checking and re-protecting
// object A's pages while another maps, re-protects and unmaps object B's
// pages in A's granules and in granules of their own, so the shards publish
// new granule sets under A's checks. Under -race it is the test of the
// lock-free read contract; A must never fault or find its pages unmapped.
func TestCheckBesideNeighbourMaps(t *testing.T) {
	m, _, _ := newMMU(t)
	const (
		g     = mem.Addr(mmuGranuleBytes)
		aBase = 0x4000_0000 + g - 4*4096 // A straddles a granule boundary
		aSize = 8 * 4096
	)
	m.Map(aBase, aSize, ProtReadWrite)
	m.SetHandler(func(f Fault) error {
		return fmt.Errorf("unexpected %s fault at %#x", f.Access, uint64(f.Addr))
	})
	// B's ranges: A's neighbours on both sides, and one page run in each of
	// 32 granules of B's own.
	var bRanges [][2]mem.Addr
	bRanges = append(bRanges, [2]mem.Addr{aBase - 4*4096, 4 * 4096}, [2]mem.Addr{aBase + aSize, 4 * 4096})
	for k := mem.Addr(2); k < 34; k++ {
		bRanges = append(bRanges, [2]mem.Addr{0x4000_0000 + k*g, 4 * 4096})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bRounds atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ; ; bRounds.Add(1) {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range bRanges {
				m.Map(r[0], int64(r[1]), ProtNone)
			}
			for _, r := range bRanges {
				if err := m.Mprotect(r[0], int64(r[1]), ProtRead); err != nil {
					t.Errorf("B mprotect: %v", err)
					return
				}
			}
			for _, r := range bRanges {
				m.Unmap(r[0], int64(r[1]))
			}
		}
	}()
	for i := 0; i < 2000 || bRounds.Load() < 200; i++ {
		prot := ProtRead
		if i%2 == 1 {
			prot = ProtReadWrite
		}
		if err := m.Mprotect(aBase, aSize, prot); err != nil {
			t.Errorf("A mprotect: %v", err)
			break
		}
		err := m.CheckRead(aBase, aSize)
		if err == nil && prot == ProtReadWrite {
			err = m.CheckWrite(aBase, aSize)
		}
		if err != nil {
			t.Errorf("A check %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if st := m.Stats(); st.Faults != 0 {
		t.Fatalf("A faulted %d times", st.Faults)
	}
}
