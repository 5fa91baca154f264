package racecheck

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/oplog"
)

const (
	testBlock = int64(4096)
	testBase  = mem.Addr(0x10000)
)

func feed(d *Detector, ops ...oplog.Op) {
	for _, op := range ops {
		d.Feed(op)
	}
}

func allocOp(obj uint32, size int64) oplog.Op {
	return oplog.Op{Kind: oplog.OpAlloc, Obj: obj, Addr: testBase, Size: size}
}

func hostOp(kind oplog.Kind, obj uint32, off, size int64, lane uint32) oplog.Op {
	return oplog.Op{Kind: kind, Obj: obj, Addr: testBase + mem.Addr(off), Size: size, Lane: lane}
}

// TestMultiBlockAccessDedup: a conflicting pair of accesses spanning four
// coherence blocks is one race, not four — reports deduplicate on the op
// pair.
func TestMultiBlockAccessDedup(t *testing.T) {
	d := New(oplog.Header{BlockSize: testBlock})
	feed(d,
		allocOp(1, 4*testBlock),
		hostOp(oplog.OpHostWrite, 1, 0, 4*testBlock, 1),
		hostOp(oplog.OpHostWrite, 1, 0, 4*testBlock, 2),
	)
	if d.Count() != 1 {
		t.Fatalf("4-block conflicting pair reported %d races, want 1", d.Count())
	}
	r := d.Races()[0]
	if r.Kind != "write-write" || r.Prior.Lane != 1 || r.Access.Lane != 2 {
		t.Fatalf("wrong report: %+v", r)
	}
	if r.Prior.OpIndex >= r.Access.OpIndex {
		t.Fatalf("sites out of stream order: %+v", r)
	}
}

// TestWholeObjectGranularity: with BlockSize 0 the shadow is one block per
// object, so byte-disjoint accesses still conflict — the documented
// conservative fallback.
func TestWholeObjectGranularity(t *testing.T) {
	d := New(oplog.Header{})
	feed(d,
		allocOp(1, 1<<20),
		hostOp(oplog.OpHostWrite, 1, 0, 8, 1),
		hostOp(oplog.OpHostRead, 1, 1<<19, 8, 2),
	)
	if d.Count() != 1 {
		t.Fatalf("whole-object shadow reported %d races, want 1", d.Count())
	}
	if d.Races()[0].Kind != "write-read" {
		t.Fatalf("kind %q, want write-read", d.Races()[0].Kind)
	}
}

// TestSyncOrdersKernelFootprint: the Sync completion edge orders a kernel's
// declared write against later host accesses; dropping the Sync makes the
// same pair race.
func TestSyncOrdersKernelFootprint(t *testing.T) {
	prefix := []oplog.Op{
		allocOp(1, testBlock),
		{Kind: oplog.OpAnnotate, Obj: 1},
		{Kind: oplog.OpInvoke},
	}
	for _, tc := range []struct {
		name  string
		after []oplog.Op
		want  int64
	}{
		{"sync", []oplog.Op{{Kind: oplog.OpSync}, hostOp(oplog.OpHostWrite, 1, 0, 8, 0)}, 0},
		{"missing-sync", []oplog.Op{hostOp(oplog.OpHostWrite, 1, 0, 8, 0)}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := New(oplog.Header{BlockSize: testBlock})
			feed(d, prefix...)
			feed(d, tc.after...)
			if d.Count() != tc.want {
				t.Fatalf("%d races, want %d: %v", d.Count(), tc.want, d.Races())
			}
		})
	}
}

// TestUnannotatedKernelHasNoFootprint: an OpInvoke with no preceding
// OpAnnotate contributes ordering edges only — no accesses, no races.
func TestUnannotatedKernelHasNoFootprint(t *testing.T) {
	d := New(oplog.Header{BlockSize: testBlock})
	feed(d,
		allocOp(1, testBlock),
		oplog.Op{Kind: oplog.OpInvoke},
		hostOp(oplog.OpHostWrite, 1, 0, 8, 0),
	)
	if d.Count() != 0 {
		t.Fatalf("unannotated kernel produced %d races: %v", d.Count(), d.Races())
	}
}

// TestFreedObjectIgnored: accesses to a freed (or never-allocated) object
// carry no shadow state and cannot race.
func TestFreedObjectIgnored(t *testing.T) {
	d := New(oplog.Header{BlockSize: testBlock})
	feed(d,
		allocOp(1, testBlock),
		oplog.Op{Kind: oplog.OpFree, Obj: 1},
		hostOp(oplog.OpHostWrite, 1, 0, 8, 1),
		hostOp(oplog.OpHostWrite, 1, 0, 8, 2),
		hostOp(oplog.OpHostWrite, 7, 0, 8, 3), // never allocated
	)
	if d.Count() != 0 {
		t.Fatalf("freed-object accesses raced: %v", d.Races())
	}
}

// TestRaceRetentionBound: detection and Count continue past the retained-
// report cap.
func TestRaceRetentionBound(t *testing.T) {
	d := New(oplog.Header{BlockSize: testBlock})
	d.Feed(allocOp(1, testBlock))
	const writes = maxRaces + 176
	for i := 0; i < writes; i++ {
		// Alternating lanes that never synchronise: every write races
		// with the one before it.
		d.Feed(hostOp(oplog.OpHostWrite, 1, 0, 8, uint32(1+i%2)))
	}
	if want := int64(writes - 1); d.Count() != want {
		t.Fatalf("count %d, want %d", d.Count(), want)
	}
	if len(d.Races()) != maxRaces {
		t.Fatalf("retained %d reports, want the %d cap", len(d.Races()), maxRaces)
	}
}

// TestReadReadDoesNotRace: concurrent reads never conflict, and a racing
// read is replaced in place when its lane reads again.
func TestReadReadDoesNotRace(t *testing.T) {
	d := New(oplog.Header{BlockSize: testBlock})
	feed(d,
		allocOp(1, testBlock),
		hostOp(oplog.OpHostRead, 1, 0, 8, 1),
		hostOp(oplog.OpHostRead, 1, 0, 8, 2),
		hostOp(oplog.OpHostRead, 1, 0, 8, 1),
	)
	if d.Count() != 0 {
		t.Fatalf("read-read raced: %v", d.Races())
	}
	// A later unordered write races with both reading lanes.
	d.Feed(hostOp(oplog.OpHostWrite, 1, 0, 8, 3))
	if d.Count() != 2 {
		t.Fatalf("write vs 2 reading lanes: %d races, want 2", d.Count())
	}
}

// TestBitset covers growth and the or-merge.
func TestBitset(t *testing.T) {
	var b bitset
	for _, i := range []int{0, 63, 64, 200} {
		b.set(i)
		if !b.has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.has(1) || b.has(199) || b.has(1000) {
		t.Fatal("phantom bits")
	}
	var c bitset
	c.set(7)
	c.or(b)
	for _, i := range []int{0, 7, 63, 64, 200} {
		if !c.has(i) {
			t.Fatalf("merged bit %d lost", i)
		}
	}
}
