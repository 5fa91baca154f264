package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/testutil"
)

// pageRef is the per-bit reference of an object's page bitmaps: one bool
// per page, set and cleared a page at a time.
type pageRef struct {
	dirty, owed []bool
}

// set stores v into pages [lo, hi] of bits.
func (pageRef) set(bits []bool, lo, hi uint64, v bool) {
	for p := lo; p <= hi; p++ {
		bits[p] = v
	}
}

// run is owedRun's per-bit reference.
func (r pageRef) run(p, hi uint64) (uint64, bool) {
	q := p + 1
	for q <= hi && r.owed[q] == r.owed[p] {
		q++
	}
	return q, r.owed[p]
}

// check compares o's bitmaps and owed-page count with r, page by page.
func (r pageRef) check(t *testing.T, o *Object, what string) {
	t.Helper()
	owed := 0
	for p := range r.dirty {
		w, bit := p>>6, uint64(1)<<(p&63)
		if got := o.dirty[w]&bit != 0; got != r.dirty[p] {
			t.Fatalf("%s: page %d dirty %v, the per-bit reference %v", what, p, got, r.dirty[p])
		}
		if got := o.owed[w]&bit != 0; got != r.owed[p] {
			t.Fatalf("%s: page %d owed %v, the per-bit reference %v", what, p, got, r.owed[p])
		}
		if r.owed[p] {
			owed++
		}
	}
	for w := range o.dirty {
		if hi := uint64(len(r.dirty)) - uint64(w)*64; hi < 64 && (o.dirty[w]|o.owed[w])>>hi != 0 {
			t.Fatalf("%s: a bit past the last page is set in word %d", what, w)
		}
	}
	if o.owedPages != owed {
		t.Fatalf("%s: owedPages %d, the per-bit reference counts %d", what, o.owedPages, owed)
	}
}

// TestPageBitmapsAgainstPerBit drives the word-at-a-time page bitmap
// operations of an object (markWritten, clean, settle, disown, owedRun)
// with random page ranges, most of them across 64-bit words, and after
// every step compares each page's bits, owedPages and every run end with
// a per-bit reference. Objects end on a short page or a whole one, at a
// word boundary or inside a word.
func TestPageBitmapsAgainstPerBit(t *testing.T) {
	const page = 4096
	shapes := []struct{ size, block int64 }{
		{1, 0},
		{64 * page, page},
		{129*page + 1, 3 * page},
		{300*page - 100, 70 * page},
		{256 * page, 0},
	}
	for _, seed := range testutil.Seeds(t, 1, 3) {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("seed=%d/size=%d/block=%d", seed, sh.size, sh.block), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				o := &Object{addr: 0x40_0000, size: sh.size}
				o.makeBlocks(sh.block, page)
				pages := uint64((sh.size + page - 1) / page)
				ref := pageRef{make([]bool, pages), make([]bool, pages)}
				// span picks pages [lo, hi], up to 200 of them.
				span := func() (lo, hi uint64) {
					lo = uint64(rng.Int63n(int64(pages)))
					return lo, min(lo+uint64(rng.Int63n(200)), pages-1)
				}
				// blockRun picks a run of blocks and its pages.
				blockRun := func() (*Block, int, uint64, uint64) {
					i := rng.Intn(len(o.blocks))
					n := 1 + rng.Intn(len(o.blocks)-i)
					lo, hi := o.pages(o.blocks[i].addr, runSize(o.blocks[i], n))
					return o.blocks[i], n, lo, hi
				}
				for step := range 3000 {
					var what string
					switch rng.Intn(5) {
					case 0:
						off := rng.Int63n(sh.size)
						n := 1 + rng.Int63n(min(sh.size-off, 200*page))
						o.markWritten(o.addr+mem.Addr(off), n)
						lo, hi := o.pages(o.addr+mem.Addr(off), n)
						ref.set(ref.dirty, lo, hi, true)
						what = fmt.Sprintf("markWritten(+%d, %d)", off, n)
					case 1:
						first, n, lo, hi := blockRun()
						o.clean(first, n)
						ref.set(ref.dirty, lo, hi, false)
						what = fmt.Sprintf("clean(%d, %d)", first.index, n)
					case 2:
						first, n, lo, hi := blockRun()
						owe := rng.Intn(2) == 0
						o.settle(first, n, owe)
						ref.set(ref.dirty, lo, hi, false)
						ref.set(ref.owed, lo, hi, owe)
						what = fmt.Sprintf("settle(%d, %d, %v)", first.index, n, owe)
					case 3:
						lo, hi := span()
						o.disown(lo, hi)
						ref.set(ref.owed, lo, hi, false)
						what = fmt.Sprintf("disown(%d, %d)", lo, hi)
					case 4:
						p, hi := span()
						some := false
						for q := p; q <= hi; q++ {
							some = some || ref.owed[q]
						}
						if got := o.owes(p, hi); got != some {
							t.Fatalf("step %d: owes(%d, %d) = %v, the per-bit reference %v", step, p, hi, got, some)
						}
						for p <= hi {
							q, owed := o.owedRun(p, hi)
							wq, wowed := ref.run(p, hi)
							if q != wq || owed != wowed {
								t.Fatalf("step %d: owedRun(%d, %d) = %d, %v; the per-bit reference %d, %v",
									step, p, hi, q, owed, wq, wowed)
							}
							p = q
						}
						continue
					}
					ref.check(t, o, fmt.Sprintf("step %d, %s", step, what))
				}
			})
		}
	}
}
