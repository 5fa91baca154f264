package mem

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSpaceReadWrite(t *testing.T) {
	s := NewSpace("dev", 0x1000, 64)
	if s.Base() != 0x1000 || s.Size() != 64 || s.Name() != "dev" {
		t.Fatalf("space metadata wrong: %#x %d %s", uint64(s.Base()), s.Size(), s.Name())
	}
	s.Write(0x1008, []byte{1, 2, 3})
	got := make([]byte, 3)
	s.Read(0x1008, got)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("read back %v", got)
	}
	// Bytes returns a live view.
	s.Bytes(0x1008, 1)[0] = 9
	s.Read(0x1008, got[:1])
	if got[0] != 9 {
		t.Fatal("Bytes view is not live")
	}
}

func TestSpaceScalars(t *testing.T) {
	s := NewSpace("dev", 0, 32)
	s.SetFloat32(0, 3.5)
	if v := s.Float32(0); v != 3.5 {
		t.Fatalf("Float32 = %v", v)
	}
	s.SetUint32(4, 0xdeadbeef)
	if v := s.Uint32(4); v != 0xdeadbeef {
		t.Fatalf("Uint32 = %#x", v)
	}
	s.SetUint64(8, 1<<40)
	if v := s.Uint64(8); v != 1<<40 {
		t.Fatalf("Uint64 = %#x", v)
	}
	s.Memset(16, 0xab, 8)
	for i := int64(16); i < 24; i++ {
		if s.Bytes(Addr(i), 1)[0] != 0xab {
			t.Fatalf("Memset missed byte %d", i)
		}
	}
}

// mustMachineCheck runs access and requires the out-of-range panic of
// panicOutOfRange naming the space, not a runtime bounds or memory fault.
func mustMachineCheck(t *testing.T, name string, access func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "mem: access") || !strings.Contains(msg, "outside space "+name) {
			t.Fatalf("want the machine check naming space %q, got panic %q", name, msg)
		}
	}()
	access()
}

func TestSpaceOutOfRangePanics(t *testing.T) {
	s := NewSpace("dev", 0x1000, 16)
	for _, access := range []func(){
		func() { s.Bytes(0xfff, 1) },
		func() { s.Bytes(0x1000, 17) },
		func() { s.Bytes(0x100f, 2) },
		func() { s.Bytes(0x1008, math.MaxInt64) }, // off+n wraps negative
	} {
		mustMachineCheck(t, "dev", access)
	}
}

func TestSpaceContains(t *testing.T) {
	s := NewSpace("dev", 0x1000, 16)
	if !s.Contains(0x1000, 16) || s.Contains(0x1000, 17) || s.Contains(0x1000, -1) {
		t.Fatal("Contains boundary conditions wrong")
	}
	if !s.Contains(0x1010, 0) || s.Contains(0x1011, 0) || s.Contains(0x1008, math.MaxInt64) {
		t.Fatal("Contains wrong at the end of the space or for a length that overflows")
	}
}

// TestLazySpace checks the device-memory backing behind the Space API:
// zero-filled wherever it is first touched, aliased by Bytes, translated
// like any other space.
func TestLazySpace(t *testing.T) {
	const base, size, page = Addr(0x2_0000_0000), int64(1 << 30), int64(4096)
	s := NewLazySpace("gddr", base, size)
	defer s.Close()
	if s.Base() != base || s.Size() != size || s.Name() != "gddr" {
		t.Fatalf("space metadata wrong: %#x %d %s", uint64(s.Base()), s.Size(), s.Name())
	}
	got := make([]byte, page)
	for _, off := range []int64{0, size / 2, size - page} {
		for i := range got {
			got[i] = 0xff
		}
		s.Read(base+Addr(off), got)
		if !bytes.Equal(got, make([]byte, page)) {
			t.Fatalf("fresh page at offset %#x is not zero", off)
		}
	}
	copy(s.Bytes(base+Addr(size-page), 3), []byte{1, 2, 3})
	s.Read(base+Addr(size-page), got[:3])
	if !bytes.Equal(got[:3], []byte{1, 2, 3}) {
		t.Fatalf("Bytes is not a live view: read back %v", got[:3])
	}
	mustMachineCheck(t, "gddr", func() { s.Bytes(base+Addr(size-1), 2) })

	s.SetTranslator(func(addr Addr, n int64) (Addr, bool) {
		if addr >= 0x9000 && addr+Addr(n) <= 0x9000+Addr(page) {
			return base + Addr(size-page) + (addr - 0x9000), true
		}
		return 0, false
	})
	if s.Uint32(0x9000) != 0x030201 {
		t.Fatalf("translated read = %#x, want the bytes written physically", s.Uint32(0x9000))
	}
	s.SetUint32(base, 7) // untranslated addresses stay physical
	if s.Uint32(base) != 7 {
		t.Fatal("identity access broken under a translator")
	}
}

// TestSpaceUseAfterClose: a closed space is empty, so every access is the
// machine check and none reaches the memory that went back.
func TestSpaceUseAfterClose(t *testing.T) {
	for _, s := range []*Space{NewLazySpace("gddr", 0x1000, 1<<20), NewSpace("anon", 0x1000, 1<<20)} {
		s.Write(0x1000, []byte{1})
		s.Close()
		s.Close() // idempotent
		if s.Size() != 0 || s.Contains(0x1000, 1) {
			t.Fatalf("closed space %s still has %d bytes", s.Name(), s.Size())
		}
		for _, access := range []func(){
			func() { s.Bytes(0x1000, 1) },
			func() { s.Read(0x1000, make([]byte, 8)) },
			func() { s.Write(0x1000, []byte{1}) },
			func() { s.Memset(0x1000, 0, 4096) },
		} {
			mustMachineCheck(t, s.Name(), access)
		}
	}
}

func TestAllocatorBasic(t *testing.T) {
	a := NewAllocator(0x1000, 4096, 256)
	p1, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != 0x1000 {
		t.Fatalf("first alloc at %#x", uint64(p1))
	}
	if a.SizeOf(p1) != 256 {
		t.Fatalf("rounded size %d, want 256", a.SizeOf(p1))
	}
	p2, err := a.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != 0x1100 {
		t.Fatalf("second alloc at %#x, want 0x1100", uint64(p2))
	}
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	// First-fit should reuse the hole.
	p3, err := a.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatalf("hole not reused: got %#x want %#x", uint64(p3), uint64(p1))
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator(0, 1024, 256)
	for i := 0; i < 4; i++ {
		if _, err := a.Alloc(256); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	if a.FreeBytes() != 0 {
		t.Fatalf("free bytes %d, want 0", a.FreeBytes())
	}
}

func TestAllocatorBadFree(t *testing.T) {
	a := NewAllocator(0, 1024, 256)
	p, _ := a.Alloc(10)
	if err := a.Free(p + 1); !errors.Is(err, ErrBadFree) {
		t.Fatalf("free of interior address: %v", err)
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free: %v", err)
	}
}

func TestAllocatorCoalescing(t *testing.T) {
	a := NewAllocator(0, 4096, 256)
	var ps []Addr
	for i := 0; i < 16; i++ {
		p, err := a.Alloc(256)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	// Free in an interleaved order to exercise both coalesce directions.
	for _, i := range []int{1, 3, 2, 0, 15, 13, 14, 12, 5, 4, 6, 7, 9, 11, 10, 8} {
		if err := a.Free(ps[i]); err != nil {
			t.Fatal(err)
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("after freeing %d: %v", i, err)
		}
	}
	// Everything coalesced back into one span: a full-size alloc works.
	if _, err := a.Alloc(4096); err != nil {
		t.Fatalf("arena did not coalesce: %v", err)
	}
}

func TestAllocatorInvalidRequests(t *testing.T) {
	a := NewAllocator(0, 1024, 16)
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("Alloc(0) succeeded")
	}
	if _, err := a.Alloc(-5); err == nil {
		t.Fatal("Alloc(-5) succeeded")
	}
}

func TestAllocatorRandomisedProperty(t *testing.T) {
	// Property: under random alloc/free traffic the invariants always hold
	// and live allocations never overlap.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator(0x10000, 1<<16, 64)
		var live []Addr
		for op := 0; op < 200; op++ {
			if len(live) == 0 || rng.Intn(2) == 0 {
				size := int64(rng.Intn(2048) + 1)
				p, err := a.Alloc(size)
				if err == nil {
					live = append(live, p)
				}
			} else {
				i := rng.Intn(len(live))
				if a.Free(live[i]) != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if a.CheckInvariants() != nil {
				return false
			}
		}
		// No two live allocations overlap.
		for i := 0; i < len(live); i++ {
			for j := i + 1; j < len(live); j++ {
				ai, si := live[i], a.SizeOf(live[i])
				aj, sj := live[j], a.SizeOf(live[j])
				if ai < aj+Addr(sj) && aj < ai+Addr(si) {
					return false
				}
			}
		}
		return a.Live() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestVASpaceMapFixed(t *testing.T) {
	v := NewVASpace(0x10000, 0x100000)
	m, err := v.MapFixed(0x20000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if m.Addr != 0x20000 || m.Space.Base() != 0x20000 {
		t.Fatalf("mapping at %#x, backing at %#x", uint64(m.Addr), uint64(m.Space.Base()))
	}
	// Overlapping fixed map fails (does not clobber).
	if _, err := v.MapFixed(0x20800, 4096); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("overlapping MapFixed: %v", err)
	}
	if v.Mappings() != 1 {
		t.Fatalf("mappings = %d, want 1", v.Mappings())
	}
	if err := v.Unmap(0x20000); err != nil {
		t.Fatal(err)
	}
	if _, err := v.MapFixed(0x20800, 4096); err != nil {
		t.Fatalf("MapFixed after unmap: %v", err)
	}
}

func TestVASpaceReserveConflict(t *testing.T) {
	// The §4.2 scenario: a second accelerator's allocation range collides
	// with an existing host mapping, so MapFixed fails and the caller must
	// fall back to SafeAlloc (MapAnywhere).
	v := NewVASpace(0x10000, 0x100000)
	if err := v.Reserve(0x30000, 8192); err != nil {
		t.Fatal(err)
	}
	if _, err := v.MapFixed(0x31000, 4096); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("MapFixed over reservation: %v", err)
	}
	m, err := v.MapAnywhere(4096)
	if err != nil {
		t.Fatal(err)
	}
	if m.Addr >= 0x30000 && m.Addr < 0x32000 {
		t.Fatalf("MapAnywhere placed mapping inside reservation at %#x", uint64(m.Addr))
	}
}

func TestVASpaceMapAnywhereSkipsObstacles(t *testing.T) {
	v := NewVASpace(0x1000, 0x10000)
	// Fill the window with obstacles leaving one hole.
	if err := v.Reserve(0x1000, 0x7000); err != nil {
		t.Fatal(err)
	}
	if err := v.Reserve(0x9000, 0x7000); err != nil {
		t.Fatal(err)
	}
	m, err := v.MapAnywhere(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Addr != 0x8000 {
		t.Fatalf("mapping at %#x, want the 0x8000 hole", uint64(m.Addr))
	}
	// No space left for another one.
	if _, err := v.MapAnywhere(0x1000); err == nil {
		t.Fatal("second MapAnywhere should fail")
	}
}

func TestVASpaceLookup(t *testing.T) {
	v := NewVASpace(0x1000, 0x100000)
	m1, _ := v.MapFixed(0x2000, 4096)
	m2, _ := v.MapFixed(0x8000, 4096)
	if got := v.Lookup(0x2fff); got != m1 {
		t.Fatal("Lookup missed m1")
	}
	if got := v.Lookup(0x3000); got != nil {
		t.Fatal("Lookup found mapping in a gap")
	}
	if got := v.Lookup(0x8000); got != m2 {
		t.Fatal("Lookup missed m2 start")
	}
	if got := v.Lookup(0x500); got != nil {
		t.Fatal("Lookup below all mappings should be nil")
	}
}

func TestVASpaceUnmapUnknown(t *testing.T) {
	v := NewVASpace(0x1000, 0x10000)
	if err := v.Unmap(0x4000); err == nil {
		t.Fatal("Unmap of unmapped address succeeded")
	}
}

// TestVASpaceAgainstFlatModel drives MapFixed and Unmap at random page
// granularity and checks every verdict against a page-occupancy array: the
// binary searches over the sorted mappings must agree with it at every
// edge (a range ending where a mapping starts, starting where one ends,
// swallowing several, an Unmap inside a mapping).
func TestVASpaceAgainstFlatModel(t *testing.T) {
	const pages, page = 64, 0x1000
	rng := rand.New(rand.NewSource(1))
	v := NewVASpace(0, pages*page)
	owner := make([]int, pages) // first page of the mapping covering each page, +1; 0 = free
	for i := 0; i < 4000; i++ {
		first, n := rng.Intn(pages), 1+rng.Intn(6)
		if first+n > pages {
			n = pages - first
		}
		addr := Addr(first * page)
		if rng.Intn(3) == 0 {
			err := v.Unmap(addr)
			if starts := owner[first] == first+1; starts != (err == nil) {
				t.Fatalf("step %d: Unmap(%#x) = %v, model says a mapping starts there: %v", i, uint64(addr), err, starts)
			}
			for p := first; err == nil && p < pages && owner[p] == first+1; p++ {
				owner[p] = 0
			}
			continue
		}
		free := true
		for p := first; p < first+n; p++ {
			free = free && owner[p] == 0
		}
		_, err := v.MapFixed(addr, int64(n*page))
		if free != (err == nil) {
			t.Fatalf("step %d: MapFixed(%#x, %d pages) = %v, model says free: %v", i, uint64(addr), n, err, free)
		}
		for p := first; err == nil && p < first+n; p++ {
			owner[p] = first + 1
		}
	}
}

func TestVASpaceHintWraps(t *testing.T) {
	v := NewVASpace(0x1000, 0x3000)
	m1, err := v.MapAnywhere(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := v.MapAnywhere(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Unmap(m1.Addr); err != nil {
		t.Fatal(err)
	}
	// Hint is past m2; allocation must wrap to reuse m1's hole.
	m3, err := v.MapAnywhere(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Addr != m1.Addr && m3.Addr == m2.Addr {
		t.Fatalf("wrap allocation overlapped live mapping")
	}
}

func TestSpaceTranslator(t *testing.T) {
	s := NewSpace("vm", 0x1000, 64)
	// Map virtual 0x9000.. onto physical 0x1000..
	s.SetTranslator(func(addr Addr, n int64) (Addr, bool) {
		if addr >= 0x9000 && addr+Addr(n) <= 0x9040 {
			return addr - 0x9000 + 0x1000, true
		}
		return 0, false
	})
	s.Write(0x9008, []byte{7})
	got := make([]byte, 1)
	s.Read(0x1008, got) // physical alias sees the write
	if got[0] != 7 {
		t.Fatalf("translated write missed: %d", got[0])
	}
	s.SetFloat32(0x9010, 2.5)
	if v := s.Float32(0x9010); v != 2.5 {
		t.Fatalf("translated scalar: %v", v)
	}
	// Unmapped virtual range falls through to the physical bounds check.
	defer func() {
		if recover() == nil {
			t.Fatal("unmapped translated access did not panic")
		}
	}()
	s.Bytes(0x8000, 1)
}
