package mem

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/bitmap"
)

// recycledVA returns a VA space holding a ballast mapping large enough for
// the pool to keep a freed backing of size bytes, and a mapping of size
// bytes at addr over the backing of a freed one that was filled with 0xa5.
// It fails the test unless the backing really was recycled.
func recycledVA(t *testing.T, addr Addr, size int64) (*VASpace, *Mapping) {
	t.Helper()
	v := NewVASpace(0x10_0000, 0x1000_0000)
	if _, err := v.MapAnywhere(poolShare * size); err != nil {
		t.Fatal(err)
	}
	old, err := v.MapFixed(addr, size)
	if err != nil {
		t.Fatal(err)
	}
	old.Space.Memset(addr, 0xa5, size)
	backing := unsafe.SliceData(old.Space.data)
	if err := v.Unmap(addr); err != nil {
		t.Fatal(err)
	}
	m, err := v.MapFixed(addr, size)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(m.Space.data) != backing {
		t.Fatal("MapFixed built a fresh backing: nothing here tests a recycled one")
	}
	return v, m
}

func wantZeros(t *testing.T, what string, got []byte) {
	t.Helper()
	if i := bytes.IndexFunc(got, func(r rune) bool { return r != 0 }); i >= 0 {
		t.Errorf("%s: byte %d of %d reads %#x, want zeros", what, i, len(got), got[i])
	}
}

// TestRecycledSpaceReadsZeros tries every Space accessor on a page of a
// recycled space that nothing touched before: each must see zeros, and
// a partial store must leave the rest of its page zero.
func TestRecycledSpaceReadsZeros(t *testing.T) {
	const base, pages = Addr(0x4000_0000), 16
	page := func(i int) Addr { return base + Addr(i*stalePage) }
	_, m := recycledVA(t, base, pages*stalePage)
	s := m.Space
	whole := func(i int) []byte { // a page's bytes, as Read sees them
		b := make([]byte, stalePage)
		s.Read(page(i), b)
		return b
	}

	b := make([]byte, stalePage)
	s.Read(page(0), b)
	wantZeros(t, "Read", b)
	if _, stale := bitmap.Run(s.stale, 0, 1); !stale {
		t.Error("Read made its page live")
	}
	wantZeros(t, "Bytes", s.Bytes(page(1), stalePage))
	s.Write(page(2)+100, []byte{1, 2, 3})
	wantZeros(t, "a partial Write's page", append(whole(2)[:100], whole(2)[103:]...))
	s.Memset(page(3)+7, 0xff, 9)
	wantZeros(t, "a partial Memset's page", append(whole(3)[:7], whole(3)[16:]...))
	if v := s.Float32(page(6)); v != 0 {
		t.Errorf("Float32 = %v", v)
	}
	if v := s.Uint32(page(7) + 4); v != 0 {
		t.Errorf("Uint32 = %#x", v)
	}
	if v := s.Uint64(page(8) + 8); v != 0 {
		t.Errorf("Uint64 = %#x", v)
	}
	s.SetUint32(page(9), 7)
	wantZeros(t, "SetUint32's page", whole(9)[4:])
	s.SetFloat32(page(10)+8, 1)
	wantZeros(t, "SetFloat32's page", whole(10)[:8])

	// A Read over live and stale pages alike: only the stores show.
	all := make([]byte, pages*stalePage)
	s.Read(base, all)
	for _, at := range []int{2*stalePage + 100, 3*stalePage + 7, 9 * stalePage, 10*stalePage + 8} {
		if bytes.Count(all[at:at+16], []byte{0}) == 16 {
			t.Errorf("the store at %#x is lost", at)
		}
		clear(all[at : at+16])
	}
	wantZeros(t, "a Read of the whole space", all)

	// A Write of whole pages lands; once no page is stale the bitmap goes.
	fill := bytes.Repeat([]byte{0x3c}, 2*stalePage)
	s.Write(page(12), fill)
	if got := s.Bytes(page(12), 2*stalePage); !bytes.Equal(got, fill) {
		t.Error("a whole-page Write did not land")
	}
	s.Bytes(base, pages*stalePage)
	if s.nstale != 0 || s.stale != nil {
		t.Errorf("every page live, but %d stale and a bitmap of %d words", s.nstale, len(s.stale))
	}
}

// TestUnmapClosesSpace: a Mapping kept past Unmap is a machine check, not a
// window onto whatever later mapping reuses its bytes.
func TestUnmapClosesSpace(t *testing.T) {
	const addr, size = Addr(0x4000_0000), 4 * stalePage
	v, m := recycledVA(t, addr, size)
	if err := v.Unmap(addr); err != nil {
		t.Fatal(err)
	}
	next, err := v.MapFixed(addr, size)
	if err != nil {
		t.Fatal(err)
	}
	next.Space.Memset(addr, 0x11, size)
	for _, access := range []func(){
		func() { m.Space.Bytes(addr, 1) },
		func() { m.Space.Read(addr, make([]byte, 8)) },
		func() { m.Space.Write(addr, []byte{1}) },
		func() { m.Space.Memset(addr, 0, size) },
	} {
		mustMachineCheck(t, "anon", access)
	}
}

// TestPoolBound: across random map/unmap churn the pool never holds more
// than its share of the mapped bytes, and nothing once no mapping is live.
func TestPoolBound(t *testing.T) {
	v := NewVASpace(0x10_0000, 0x1000_0000)
	sizes := []int64{stalePage, 4 * stalePage, 16 * stalePage}
	var live []*Mapping
	recycled := 0
	check := func(step int) {
		t.Helper()
		var mapped, pooled int64
		for _, m := range live {
			mapped += m.Size
		}
		for size, free := range v.pool {
			if len(free) == 0 {
				t.Fatalf("step %d: the pool keeps an empty list for size %d", step, size)
			}
			pooled += size * int64(len(free))
		}
		if v.live != mapped || v.pooled != pooled || pooled > mapped/poolShare {
			t.Fatalf("step %d: live %d (mapped %d), pooled %d (counted %d), bound %d",
				step, v.live, mapped, v.pooled, pooled, mapped/poolShare)
		}
	}
	for i := 0; i < 2000; i++ {
		if len(live) > 0 && (i*7)%5 < 2 {
			k := (i * 13) % len(live)
			if err := v.Unmap(live[k].Addr); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		} else {
			m, err := v.MapAnywhere(sizes[i%len(sizes)])
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, m)
			if m.Space.nstale != 0 {
				recycled++
			}
		}
		check(i)
	}
	if recycled == 0 {
		t.Fatal("no mapping reused a pooled backing: the churn does not exercise the pool")
	}
	for len(live) > 0 {
		if err := v.Unmap(live[0].Addr); err != nil {
			t.Fatal(err)
		}
		live = live[1:]
		check(-1)
	}
	if v.pooled != 0 || len(v.pool) != 0 {
		t.Fatalf("no mapping is live, but the pool holds %d bytes in %d sizes", v.pooled, len(v.pool))
	}
}
