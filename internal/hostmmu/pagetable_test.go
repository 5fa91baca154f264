package hostmmu

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// The differential harness for the page table: an op stream runs against an
// MMU and against a flat map of page bases, the design the granule arrays
// replaced, and every result, every page and every counter must agree.
//
// Each op is six bytes: kind, start page (two bytes), length, a protection
// or handler byte, and a sub-page offset. Pages are indexed over a window
// of three granules and a few pages starting at a granule boundary, so runs
// cross granule (hence shard) edges and Unmaps punch holes that later
// Mprotects and checks hit.

// pageSizes are the page sizes the fuzzer picks from; 2 MiB pages make
// each page its own granule.
var pageSizes = []int64{4 << 10, 16 << 10, 64 << 10, 2 << 20}

const (
	ptOrigin = mem.Addr(0x4000_0000)
	ptOpLen  = 6
)

// handler modes a check op selects: how the installed fault handler
// answers a fault.
const (
	handleUpgrade  = iota // mprotect the faulting page to what the access needs
	handleReadOnly        // mprotect it to ProtRead: a write fault never resolves
	handleRefuse          // return an error
)

type ptOracle struct {
	pages                         map[mem.Addr]Prot
	faults, reads, writes, mprots int64
}

// pagesOf lists the page bases the MMU covers for [addr, addr+size): every
// page base from addr's page up to the end.
func pagesOf(pageSize int64, addr mem.Addr, size int64) []mem.Addr {
	var out []mem.Addr
	for p := addr &^ mem.Addr(pageSize-1); p < addr+mem.Addr(size); p += mem.Addr(pageSize) {
		out = append(out, p)
	}
	return out
}

// mprotect applies Mprotect to the oracle: all or nothing.
func (o *ptOracle) mprotect(pages []mem.Addr, prot Prot) error {
	for _, p := range pages {
		if _, ok := o.pages[p]; !ok {
			return ErrUnmapped
		}
	}
	for _, p := range pages {
		o.pages[p] = prot
	}
	o.mprots++
	return nil
}

// check replays CheckRead/CheckWrite page by page: up to two deliveries per
// page, the handler's effect applied to the oracle.
func (o *ptOracle) check(pages []mem.Addr, access Access, mode int) error {
	need := ProtRead
	if access == AccessWrite {
		need = ProtReadWrite
	}
	for _, p := range pages {
		for tries := 0; ; tries++ {
			prot, ok := o.pages[p]
			if !ok {
				return ErrUnmapped
			}
			if prot >= need {
				break
			}
			if tries >= 2 {
				return ErrFaultLoop
			}
			o.faults++
			if access == AccessWrite {
				o.writes++
			} else {
				o.reads++
			}
			switch mode {
			case handleUpgrade:
				o.pages[p] = need
				o.mprots++
			case handleReadOnly:
				o.pages[p] = ProtRead
				o.mprots++
			default:
				return ErrSegfault
			}
		}
	}
	return nil
}

// errClass reduces an error to the sentinel the oracle can predict.
func errClass(err error) error {
	for _, e := range []error{ErrUnmapped, ErrFaultLoop, ErrSegfault} {
		if errors.Is(err, e) {
			return e
		}
	}
	return err
}

// runPageTable drives one op stream through an MMU of the given page size
// and the oracle, comparing after every op.
func runPageTable(t *testing.T, pageSize int64, data []byte) {
	t.Helper()
	m := New(Config{PageSize: pageSize, SignalCost: sim.Microsecond}, sim.NewClock(), nil)
	o := &ptOracle{pages: map[mem.Addr]Prot{}}
	perGranule := int(m.granuleSize / mem.Addr(pageSize))
	window := 3*perGranule + 5
	mode := handleUpgrade
	m.SetHandler(func(f Fault) error {
		switch mode {
		case handleUpgrade:
			need := ProtRead
			if f.Access == AccessWrite {
				need = ProtReadWrite
			}
			return m.Mprotect(f.Addr, 1, need)
		case handleReadOnly:
			return m.Mprotect(f.Addr, 1, ProtRead)
		default:
			return errors.New("refused")
		}
	})
	for i := 0; i+ptOpLen <= len(data); i += ptOpLen {
		op := data[i : i+ptOpLen]
		start := int(op[1])<<8 | int(op[2])
		start %= window
		n := int(op[3])%8 + 1 // short runs: a block or a few
		if op[3] >= 128 {
			n = int(op[3]-128)*window/128 + 1 // long runs: up to the whole window
		}
		off := int64(op[5]) * pageSize / 256
		page := ptOrigin + mem.Addr(start)*mem.Addr(pageSize)
		size := int64(n)*pageSize - off
		prot := Prot(op[4] % 3)
		var got, want error
		switch op[0] % 6 {
		case 0:
			m.Map(page, size, prot)
			for _, p := range pagesOf(pageSize, page, size) {
				o.pages[p] = prot
			}
		case 1:
			m.Unmap(page, size)
			for _, p := range pagesOf(pageSize, page, size) {
				delete(o.pages, p)
			}
		case 2:
			got = m.Mprotect(page+mem.Addr(off), size, prot)
			want = o.mprotect(pagesOf(pageSize, page+mem.Addr(off), size), prot)
		case 3, 4:
			access := Access(op[0] % 6 % 2) // 3: write, 4: read
			mode = int(op[4]>>2) % 3
			pages := pagesOf(pageSize, page+mem.Addr(off), size)
			if access == AccessWrite {
				got = m.CheckWrite(page+mem.Addr(off), size)
			} else {
				got = m.CheckRead(page+mem.Addr(off), size)
			}
			want = o.check(pages, access, mode)
		case 5:
			// Zero-size protect: counted, changes nothing.
			got = m.Mprotect(page, 0, prot)
			o.mprots++
		}
		if errClass(got) != want {
			t.Fatalf("op %d %v: error %v, want %v", i/ptOpLen, op, got, want)
		}
		comparePageTable(t, m, o, window, i/ptOpLen)
	}
}

// comparePageTable checks every page of the window and one past it, the
// counters, and the granules' own bookkeeping.
func comparePageTable(t *testing.T, m *MMU, o *ptOracle, window, step int) {
	t.Helper()
	for i := -1; i <= window; i++ {
		p := ptOrigin + mem.Addr(int64(i)*m.pageSize)
		got, ok := m.Protection(p + mem.Addr(m.pageSize) - 1)
		want, wok := o.pages[p]
		if got != want || ok != wok {
			t.Fatalf("after op %d: page %#x = %v/%v, want %v/%v", step, uint64(p), got, ok, want, wok)
		}
	}
	st := m.Stats()
	if st.Faults != o.faults || st.ReadFaults != o.reads || st.WriteFaults != o.writes || st.Mprotects != o.mprots {
		t.Fatalf("after op %d: stats %+v, want faults %d (r %d, w %d), mprotects %d",
			step, st, o.faults, o.reads, o.writes, o.mprots)
	}
	mapped := 0
	for s := range m.shards {
		sh := &m.shards[s]
		for base, g := range sh.granules {
			live := 0
			for _, p := range g.prot {
				if p != protUnmapped {
					live++
				}
			}
			if sh2, _, _, _ := m.run(base, base+1); sh2 != sh || live != g.live || live == 0 {
				t.Fatalf("after op %d: granule %#x on shard %d holds %d pages, counts %d", step, uint64(base), s, live, g.live)
			}
			mapped += live
		}
	}
	if mapped != len(o.pages) {
		t.Fatalf("after op %d: %d pages mapped, want %d", step, mapped, len(o.pages))
	}
}

// ptOp builds one encoded op for the seed streams.
func ptOp(kind byte, start int, n byte, prot, off byte) []byte {
	return []byte{kind, byte(start >> 8), byte(start), n, prot, off}
}

func concatOps(ops ...[]byte) []byte {
	var out []byte
	for _, o := range ops {
		out = append(out, o...)
	}
	return out
}

// Seed streams, in units of the granule's pages where it matters.
var ptSeeds = [][]byte{
	// Map across the first granule edge, punch a hole, protect over it
	// from both sides of the edge (fails, changes nothing), then read and
	// write around it.
	concatOps(ptOp(0, 250, 140, 1, 0), ptOp(1, 256, 2, 0, 0), ptOp(2, 253, 5, 2, 0), ptOp(2, 240, 140, 0, 0),
		ptOp(4, 255, 3, 0, 0), ptOp(3, 258, 1, 0, 0x80), ptOp(2, 251, 4, 2, 0x40)),
	// Whole window mapped ProtNone, write faults resolved, a read-only
	// handler that loops on writes, a refusing handler.
	concatOps(ptOp(0, 0, 255, 0, 0), ptOp(3, 10, 3, 0, 0), ptOp(3, 300, 2, 4, 0),
		ptOp(4, 600, 2, 8, 0), ptOp(5, 7, 0, 2, 0), ptOp(2, 0, 255, 1, 0), ptOp(1, 100, 200, 0, 0)),
	// Unaligned protect and checks that end mid-page; unmap everything.
	concatOps(ptOp(0, 3, 6, 2, 0), ptOp(2, 4, 1, 0, 0xf0), ptOp(4, 4, 1, 0, 0xff),
		ptOp(1, 0, 255, 0, 0), ptOp(2, 3, 1, 1, 0)),
}

// TestPageTableAgainstOracle runs the seed streams at every page size,
// including pages larger than the 1 MiB granule.
func TestPageTableAgainstOracle(t *testing.T) {
	for _, ps := range pageSizes {
		for i, seed := range ptSeeds {
			t.Run(fmt.Sprintf("%dKiB/%d", ps>>10, i), func(t *testing.T) { runPageTable(t, ps, seed) })
		}
	}
}

// FuzzPageTable decodes a page size and an op stream (see runPageTable)
// and checks the MMU against the flat-map oracle after every op.
func FuzzPageTable(f *testing.F) {
	for i, seed := range ptSeeds {
		f.Add(append([]byte{byte(i)}, seed...))
	}
	f.Add(append([]byte{3}, ptSeeds[0]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64*ptOpLen {
			return
		}
		runPageTable(t, pageSizes[int(data[0])%len(pageSizes)], data[1:])
	})
}
