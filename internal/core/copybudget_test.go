package core

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/accel"
	"repro/internal/mem"
)

// copiesOf is the copy ruler's test accessor: the manager's copy counts,
// the sum of its live objects' rows.
func copiesOf(m *Manager) copyCounts {
	var c copyCounts
	for _, o := range m.reg.snapshot() {
		o.mu.Lock()
		c.landed += o.copies.landed
		c.pulled += o.copies.pulled
		c.readThrough += o.copies.readThrough
		c.sent += o.copies.sent
		o.mu.Unlock()
	}
	return c
}

// copyBudget is one rig's copy counts next to the D2H and H2D bytes the
// cost model charged for the same run.
type copyBudget struct {
	copyCounts
	d2h, h2d int64
}

// budgetOf reads m's copy ruler and charged bytes.
func budgetOf(m *Manager) copyBudget {
	st := m.Stats()
	return copyBudget{copiesOf(m), st.BytesD2H, st.BytesH2D}
}

// loopRig is kernel-loop's shape at test scale (bench/workloads.go): a
// state object only the kernel touches, params the host writes four words
// of before every call, and out the host reads four words of after it;
// one warm-up iteration and three measured ones.
func loopRig(t *testing.T, kind ProtocolKind) copyBudget {
	const stateBytes, paramsBytes, outBytes = 32 * testPage, 16 * testPage, 8 * testPage
	cfg := defaultCfg(kind)
	cfg.BlockSize = 4 * testPage
	r := newRig(t, cfg)
	registerOwedXor(r)
	var objs [3]mem.Addr
	for i, size := range []int64{stateBytes, paramsBytes, outBytes} {
		p, err := r.mgr.Alloc(size)
		must(t, err)
		objs[i] = p
	}
	state, params, out := objs[0], objs[1], objs[2]
	word := make([]byte, 4)
	for it := range 4 {
		for w := range 4 {
			binary.LittleEndian.PutUint32(word, uint32(it*4+w))
			must(t, r.mgr.HostWrite(params+mem.Addr((it+5*w)%16*testPage), word))
		}
		must(t, r.mgr.InvokeHinted("owed.xor", CallHints{}, uint64(it),
			uint64(state), stateBytes, uint64(params), paramsBytes, uint64(out), outBytes))
		must(t, r.mgr.Sync())
		for k := range 4 {
			must(t, r.mgr.HostRead(out+mem.Addr((it+3*k)%8*testPage+8), word))
		}
	}
	must(t, r.mgr.CheckInvariants())
	return budgetOf(r.mgr)
}

// stormRig is fault-storm's shape at test scale: one object of 32
// one-page blocks; each of two passes bumps byte 0 of every block with a
// kernel, reads it in address order, bumps again, reads it in a fixed
// scattered order, and writes it in address order.
func stormRig(t *testing.T, kind ProtocolKind) copyBudget {
	const blocks = 32
	cfg := defaultCfg(kind)
	cfg.BlockSize = testPage
	r := newRig(t, cfg)
	r.dev.Register(&accel.Kernel{
		Name: "storm.bump",
		Run: func(dev *mem.Space, args []uint64) {
			for b := range blocks {
				dev.Bytes(mem.Addr(args[0])+mem.Addr(b*testPage), 1)[0]++
			}
		},
		Cost: accel.FixedCost(1e5, blocks),
	})
	p, err := r.mgr.Alloc(blocks * testPage)
	must(t, err)
	byte0 := make([]byte, 1)
	bump := func() {
		must(t, r.mgr.InvokeAnnotated("storm.bump", []mem.Addr{p}, uint64(p)))
		must(t, r.mgr.Sync())
	}
	for pass := range 2 {
		bump()
		for b := range blocks {
			must(t, r.mgr.HostRead(p+mem.Addr(b*testPage), byte0))
		}
		bump()
		for i := range blocks {
			must(t, r.mgr.HostRead(p+mem.Addr(i*13%blocks*testPage), byte0))
		}
		for b := range blocks {
			byte0[0] = byte(pass + b)
			must(t, r.mgr.HostWrite(p+mem.Addr(b*testPage), byte0))
		}
	}
	must(t, r.mgr.CheckInvariants())
	return budgetOf(r.mgr)
}

// pageRig is tpacf's initialisation shape: after a kernel call the host
// rewrites an object page by page in whole 4 KiB chunks, and after a
// second call it makes one write across a page boundary and rewrites
// page 9 whole.
func pageRig(t *testing.T, kind ProtocolKind) copyBudget {
	const size = 16 * testPage
	cfg := defaultCfg(kind)
	cfg.BlockSize = 4 * testPage
	r := newRig(t, cfg)
	registerOwedXor(r)
	p, err := r.mgr.Alloc(size)
	must(t, err)
	ref := make([]byte, size)
	call := func(k uint64) {
		must(t, r.mgr.InvokeHinted("owed.xor", CallHints{}, k, uint64(p), size))
		must(t, r.mgr.Sync())
		owedXor(ref, k)
	}
	call(1)
	for i := range 16 {
		page := wbPattern(testPage, byte(i))
		must(t, r.mgr.HostWrite(p+mem.Addr(i*testPage), page))
		copy(ref[i*testPage:], page)
	}
	call(2)
	w := wbPattern(100, 5)
	must(t, r.mgr.HostWrite(p+4*testPage-50, w))
	copy(ref[4*testPage-50:], w)
	page := wbPattern(testPage, 6)
	must(t, r.mgr.HostWrite(p+9*testPage, page))
	copy(ref[9*testPage:], page)
	must(t, r.mgr.CheckInvariants())
	budget := budgetOf(r.mgr)
	got := make([]byte, size)
	must(t, r.mgr.HostRead(p, got))
	if i := diffAt(got, ref); i >= 0 {
		t.Fatalf("byte %d reads %#x, the model holds %#x", i, got[i], ref[i])
	}
	return budget
}

// TestCopyBudget pins the copy ruler: how many bytes the simulator copies
// out of device memory (landed by a D2H transfer, pulled into host memory,
// read through into a caller's buffer) and into it (sent by an H2D
// write-back) beside the D2H and H2D bytes the cost model charges, for rigs shaped like kernel-loop and fault-storm under each
// protocol, and one shaped like tpacf's page-by-page initialisation. A
// fetch of more than one page lands nothing unless an injector is armed,
// so only the pages the host writes are pulled (a writer of whole pages
// pulls its block once), reads copy only the bytes they return, and a
// fault's one-page run lands whole. A change that brings a copy back
// (landing whole fetches, pulling on reads) moves these counts while every
// charged byte stays put; so does a write-back that sends a page its mask
// does not select, or skips one it does. The counts must not depend on
// GOMAXPROCS.
func TestCopyBudget(t *testing.T) {
	cases := []struct {
		name string
		run  func(*testing.T, ProtocolKind) copyBudget
		kind ProtocolKind
		want copyBudget
	}{
		// kernel-loop: the three measured iterations pull the four params
		// pages they write (iteration 0 writes before anything is owed),
		// and the sixteen 4-byte reads of out read through. Batch-update
		// charges all 56 pages at each of the four acquires, lazy-update
		// out's 8 pages per iteration and params' 16 per measured one,
		// rolling-update the 4-page blocks the accesses fault on. On the
		// H2D side, iteration 0's write-back sends whole (batch-update
		// sends all 56 fresh pages, the others params' 16), and each
		// later one sends only the four params pages written since
		// (sent). Batch-update charges all 56 pages at every call,
		// lazy-update params' 16, rolling-update the params blocks the
		// writes touch: 4, then 3 per iteration.
		{"kernel-loop/batch-update", loopRig, BatchUpdate, copyBudget{copyCounts{pulled: 3 * 4 * testPage, readThrough: 16 * 4, sent: (56 + 3*4) * testPage}, 4 * 56 * testPage, 4 * 56 * testPage}},
		{"kernel-loop/lazy-update", loopRig, LazyUpdate, copyBudget{copyCounts{pulled: 3 * 4 * testPage, readThrough: 16 * 4, sent: (16 + 3*4) * testPage}, (4*8 + 3*16) * testPage, 4 * 16 * testPage}},
		{"kernel-loop/rolling-update", loopRig, RollingUpdate, copyBudget{copyCounts{pulled: 3 * 4 * testPage, readThrough: 16 * 4, sent: (16 + 3*4) * testPage}, 72 * testPage, (16 + 3*12) * testPage}},
		// fault-storm: each of the four bumps makes all 32 pages come
		// over again. Under batch- and lazy-update every one of the 2×32
		// writes pulls its page and every one of the 2×2×32 one-byte
		// reads reads through. Under rolling-update each pass's in-order
		// reads fault in runs of 1, 2, 4, 8, 16 and 1 blocks: the two
		// one-page runs land their page, and the other 30 reads read
		// through. Its scattered reads fault on every block, one page
		// each, so they land all 32 pages and the writes pull none.
		// Batch-update writes all 32 pages back at every bump, sending
		// them whole at the first (the object is fresh) and the 32
		// written pages at pass 1's first; lazy-update writes back only
		// those. Under rolling-update each one-page block flushed sends
		// its page: pass 0's 32 and the 30 of pass 1's that leave the
		// rolling cache before the rig ends.
		{"fault-storm/batch-update", stormRig, BatchUpdate, copyBudget{copyCounts{pulled: 2 * 32 * testPage, readThrough: 2 * 2 * 32, sent: 2 * 32 * testPage}, 4 * 32 * testPage, 4 * 32 * testPage}},
		{"fault-storm/lazy-update", stormRig, LazyUpdate, copyBudget{copyCounts{pulled: 2 * 32 * testPage, readThrough: 2 * 2 * 32, sent: 32 * testPage}, 4 * 32 * testPage, 32 * testPage}},
		{"fault-storm/rolling-update", stormRig, RollingUpdate, copyBudget{copyCounts{landed: 2 * (2 + 32) * testPage, readThrough: 2 * 30, sent: (32 + 30) * testPage}, 4 * 32 * testPage, (32 + 30) * testPage}},
		// page-writes: the 16 whole-page writes pull 16 pages in all,
		// and the boundary write the two pages it covers in part. Under
		// batch-update each write pulls the pages it touches, so the
		// rewrite of page 9 pulls page 9. Under lazy- and rolling-update
		// the first write of a whole page into an owed block pulls the
		// block: after the first call the 16 writes pull the object
		// (lazy-update) or its four 4-page blocks (rolling-update), and
		// after the second the rewrite of page 9 pulls the 14 pages the
		// boundary write left owed (lazy-update) or block 2's 4 (rolling-
		// update). Each call makes all 16 pages come over again under
		// batch- and lazy-update; under rolling-update the writes fault in
		// blocks 0, 1–2 and 3 after the first call, and 0 and 1–2 after
		// the second. The second call writes back the 16 written pages
		// (batch-update also sends the fresh object whole at the
		// first), and under rolling-update the writes after it evict
		// two blocks, charging their 8 pages and sending the boundary
		// write's 2.
		{"page-writes/batch-update", pageRig, BatchUpdate, copyBudget{copyCounts{pulled: (16 + 2 + 1) * testPage, sent: 2 * 16 * testPage}, 2 * 16 * testPage, 2 * 16 * testPage}},
		{"page-writes/lazy-update", pageRig, LazyUpdate, copyBudget{copyCounts{pulled: (16 + 2 + 14) * testPage, sent: 16 * testPage}, 2 * 16 * testPage, 16 * testPage}},
		{"page-writes/rolling-update", pageRig, RollingUpdate, copyBudget{copyCounts{pulled: (16 + 2 + 4) * testPage, sent: (16 + 2) * testPage}, (16 + 12) * testPage, (16 + 8) * testPage}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got [2]copyBudget
			for i, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				got[i] = tc.run(t, tc.kind)
				runtime.GOMAXPROCS(prev)
			}
			if got[0] != got[1] {
				t.Fatalf("GOMAXPROCS 1 and 2 disagree: %+v and %+v", got[0], got[1])
			}
			if got[0] != tc.want {
				t.Fatalf("got %+v, want %+v", got[0], tc.want)
			}
		})
	}
}
