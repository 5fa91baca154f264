package core

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/hostmmu"
	"repro/internal/mem"
)

// recycleSize is the object TestFreedBytesNeverReappear frees and
// reallocates: eight pages, one per accessor it checks.
const recycleSize = 8 * testPage

// reallocated writes pattern over a fresh object of recycleSize bytes
// (Safe if safe), frees it and allocates one of the same size, which takes
// the freed host backing from the VA space's pool. It returns the new
// object and the freed object's backing, for the caller to check the
// reuse by address.
func reallocated(t *testing.T, r *rig, safe bool, pattern byte) (mem.Addr, []byte) {
	t.Helper()
	spec := AllocSpec{Size: recycleSize, Safe: safe}
	old, err := r.mgr.AllocObject(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.HostWrite(old, bytes.Repeat([]byte{pattern}, recycleSize)); err != nil {
		t.Fatal(err)
	}
	backing, err := r.mgr.HostBytes(old, recycleSize, hostmmu.AccessRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Free(old); err != nil {
		t.Fatal(err)
	}
	p, err := r.mgr.AllocObject(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p, backing
}

// TestFreedBytesNeverReappear: an object allocated over a freed object's
// host backing reads as zeros through every host path, each tried on a
// page nothing else touched first, under every protocol. The device side
// of a fresh object is not checked here: it still holds the freed
// object's bytes under lazy- and rolling-update (ROADMAP item 1).
func TestFreedBytesNeverReappear(t *testing.T) {
	page := func(p mem.Addr, i int) mem.Addr { return p + mem.Addr(i*testPage) }
	zeros := func(t *testing.T, what string, got []byte) {
		t.Helper()
		if i := bytes.IndexFunc(got, func(r rune) bool { return r != 0 }); i >= 0 {
			t.Errorf("%s: byte %d of %d reads %#x, want a fresh object's zeros", what, i, len(got), got[i])
		}
	}
	for _, kind := range []ProtocolKind{BatchUpdate, LazyUpdate, RollingUpdate} {
		t.Run(kind.String(), func(t *testing.T) {
			r := newRig(t, defaultCfg(kind))
			// The pool keeps a freed backing only while it is small next to
			// the bytes still mapped.
			if _, err := r.mgr.Alloc(64 * recycleSize); err != nil {
				t.Fatal(err)
			}
			p, backing := reallocated(t, r, false, 0xa5)

			buf := make([]byte, testPage)
			if err := r.mgr.HostRead(page(p, 0), buf); err != nil {
				t.Fatal(err)
			}
			zeros(t, "HostRead", buf)
			view, err := r.mgr.HostBytes(page(p, 1), testPage, hostmmu.AccessRead)
			if err != nil {
				t.Fatal(err)
			}
			zeros(t, "HostBytes", view)
			if err := r.mgr.BulkRead(page(p, 2), buf); err != nil {
				t.Fatal(err)
			}
			zeros(t, "BulkRead", buf)
			if err := r.mgr.PeerRead(page(p, 3), buf); err != nil {
				t.Fatal(err)
			}
			zeros(t, "PeerRead", buf)
			if err := r.mgr.HostWrite(page(p, 4), []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
				t.Fatal(err)
			}
			if err := r.mgr.HostRead(page(p, 4)+8, buf[8:]); err != nil {
				t.Fatal(err)
			}
			zeros(t, "the rest of a page after a partial HostWrite", buf[8:])
			all := make([]byte, recycleSize)
			if err := r.mgr.HostRead(p, all); err != nil {
				t.Fatal(err)
			}
			zeros(t, "the whole object but the HostWrite", append(all[:4*testPage], all[4*testPage+8:]...))

			now, err := r.mgr.HostBytes(p, recycleSize, hostmmu.AccessRead)
			if err != nil {
				t.Fatal(err)
			}
			if unsafe.SliceData(now) != unsafe.SliceData(backing) {
				t.Fatal("the new object got a fresh backing: nothing here tested a recycled one")
			}

			sp, backing := reallocated(t, r, true, 0x5a)
			if err := r.mgr.HostRead(sp, all); err != nil {
				t.Fatal(err)
			}
			zeros(t, "a Safe allocation's HostRead", all)
			if now, err := r.mgr.HostBytes(sp, recycleSize, hostmmu.AccessRead); err != nil {
				t.Fatal(err)
			} else if unsafe.SliceData(now) != unsafe.SliceData(backing) {
				t.Fatal("the new Safe object got a fresh backing: nothing here tested a recycled one")
			}
		})
	}
}

// TestConcurrentChurnReadsZeros: host lanes free and reallocate their own
// objects through the one VA pool while all of them touch the pages of one
// shared recycled object, whose page bitmap they write under its lock.
// Every page a lane reads before writing reads zeros. Run it under -race.
func TestConcurrentChurnReadsZeros(t *testing.T) {
	const lanes, rounds, pages = 4, 40, recycleSize / testPage
	r := newRig(t, defaultCfg(RollingUpdate))
	if _, err := r.mgr.Alloc(64 * recycleSize); err != nil {
		t.Fatal(err)
	}
	shared, backing := reallocated(t, r, false, 0xee)
	var wg sync.WaitGroup
	for l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, testPage)
			for i := range rounds {
				p, err := r.mgr.Alloc(recycleSize)
				if err != nil {
					t.Error(err)
					return
				}
				// Lane l's round i touches shared page v%pages, v unique per
				// (l, i); no lane touched that page before iff v < pages.
				v := l + i*lanes
				for _, q := range []struct {
					addr  mem.Addr
					fresh bool
				}{{p + mem.Addr(i%pages*testPage), true}, {shared + mem.Addr(v%pages*testPage), v < pages}} {
					if err := r.mgr.HostRead(q.addr, buf); err != nil {
						t.Error(err)
						return
					}
					if q.fresh && bytes.Count(buf, []byte{0}) != len(buf) {
						t.Errorf("lane %d round %d: page %#x reads freed bytes", l, i, uint64(q.addr))
					}
					if err := r.mgr.HostWrite(q.addr+mem.Addr(l), []byte{0xff}); err != nil {
						t.Error(err)
						return
					}
				}
				if err := r.mgr.HostWrite(p, bytes.Repeat([]byte{0xee}, recycleSize)); err != nil {
					t.Error(err)
					return
				}
				if err := r.mgr.Free(p); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if now, err := r.mgr.HostBytes(shared, recycleSize, hostmmu.AccessRead); err != nil {
		t.Fatal(err)
	} else if unsafe.SliceData(now) != unsafe.SliceData(backing) {
		t.Fatal("the shared object got a fresh backing: nothing here tested a recycled one")
	}
}

// TestLookupAfterChurnBuildsNoClone: once lookups use a shard, a Free and
// an Alloc on it publish its clone themselves, so the next lookup finds
// the new object without building one, and allocates nothing.
func TestLookupAfterChurnBuildsNoClone(t *testing.T) {
	r := newRig(t, defaultCfg(RollingUpdate))
	var ptrs []mem.Addr
	for range 8 {
		p, err := r.mgr.Alloc(64 << 10)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		r.mgr.objectAt(p) // readers are using every shard the objects are on
	}
	before := r.mgr.IndexRebuilds()
	if err := r.mgr.Free(ptrs[3]); err != nil {
		t.Fatal(err)
	}
	p, err := r.mgr.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if p != ptrs[3] {
		t.Fatalf("first fit placed the new object at %#x, not the freed %#x", uint64(p), uint64(ptrs[3]))
	}
	published := r.mgr.IndexRebuilds()
	if published == before {
		t.Fatal("Free and Alloc published no clone of a shard readers were using")
	}

	// testing.AllocsPerRun discards its first call, the one that would
	// build a clone, so count the first lookup's mallocs the same way.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	o := r.mgr.objectAt(p + 100)
	runtime.ReadMemStats(&ms)
	if o == nil || o.addr != p {
		t.Fatalf("lookup after Free+Alloc found %v, want the new object at %#x", o, uint64(p))
	}
	if n := ms.Mallocs - mallocs; n != 0 {
		t.Errorf("the first lookup after Free+Alloc allocated %d times", n)
	}
	if got := r.mgr.IndexRebuilds(); got != published {
		t.Errorf("the first lookup after Free+Alloc built %d clones", got-published)
	}
	if n := testing.AllocsPerRun(100, func() { r.mgr.objectAt(p) }); n != 0 {
		t.Errorf("steady-state lookup allocates %.1f times", n)
	}
}
