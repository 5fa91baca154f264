package oplog

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// randomLog builds a randomized but well-formed log for property tests.
func randomLog(rng *rand.Rand) *Log {
	l := &Log{
		Header: Header{
			Protocol:     int32(rng.Intn(3)),
			BlockSize:    int64(1) << (10 + rng.Intn(10)),
			RollingDelta: int32(rng.Intn(8)),
			FixedRolling: int32(rng.Intn(64)),
			MaxRetries:   int32(rng.Intn(10)),
			Flags:        uint32(rng.Intn(4)),
			Label:        fmt.Sprintf("prop-%d", rng.Intn(1000)),
		},
	}
	at := sim.Time(rng.Int63n(1 << 30))
	n := rng.Intn(200)
	for i := 0; i < n; i++ {
		// Timestamps wobble slightly backwards sometimes: per-goroutine
		// clock lanes make the merged stream only nearly monotonic, and
		// the delta encoding must survive that.
		at += sim.Time(rng.Int63n(1000) - 50)
		op := Op{
			At:    at,
			Kind:  Kind(1 + rng.Intn(int(nKinds)-1)),
			Flags: uint8(rng.Intn(32)),
			Mgr:   uint16(rng.Intn(4)),
			Obj:   uint32(rng.Intn(100)),
			Addr:  mem.Addr(rng.Int63n(1 << 40)),
			Size:  rng.Int63n(1 << 20),
			Arg:   rng.Int63n(1<<16) - 1<<15,
		}
		if rng.Intn(4) == 0 {
			op.Note = NoteID(fmt.Sprintf("note-%d", rng.Intn(10)))
		}
		l.Ops = append(l.Ops, op)
	}
	if rng.Intn(2) == 0 {
		l.Totals = map[string]int64{}
		for i := rng.Intn(10); i > 0; i-- {
			l.Totals[fmt.Sprintf("adsm_counter_%d", i)] = rng.Int63n(1 << 30)
		}
		if len(l.Totals) == 0 {
			l.Totals = nil
		}
	}
	if rng.Intn(3) == 0 {
		l.Metrics = []byte(fmt.Sprintf(`{"seed":%d}`, rng.Int63()))
	}
	return l
}

// TestEncodeDecodeRoundTrip is the satellite property test: decode(encode(l))
// must be identical to l for randomized op sequences.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		l := randomLog(rng)
		got, err := Decode(l.Encode())
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !reflect.DeepEqual(l.Header, got.Header) {
			t.Fatalf("trial %d: header mismatch:\n got %+v\nwant %+v", trial, got.Header, l.Header)
		}
		if !reflect.DeepEqual(l.Ops, got.Ops) {
			t.Fatalf("trial %d: ops mismatch (%d vs %d ops)", trial, len(got.Ops), len(l.Ops))
		}
		if !reflect.DeepEqual(l.Totals, got.Totals) {
			t.Fatalf("trial %d: totals mismatch:\n got %v\nwant %v", trial, got.Totals, l.Totals)
		}
		if !reflect.DeepEqual(l.Metrics, got.Metrics) {
			t.Fatalf("trial %d: metrics mismatch", trial)
		}
	}
}

// TestEncodeDeterministic: same log, same bytes (map order must not leak).
func TestEncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := randomLog(rng)
	l.Totals = map[string]int64{"b": 2, "a": 1, "c": 3, "zz": -9}
	first := l.Encode()
	for i := 0; i < 20; i++ {
		if got := l.Encode(); string(got) != string(first) {
			t.Fatalf("encode %d differs from first encode", i)
		}
	}
}

// TestDecodeTruncated: every prefix of a valid encoding must decode to an
// error, never panic, except the full length.
func TestDecodeTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := randomLog(rng)
	data := l.Encode()
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(data))
		}
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("full decode: %v", err)
	}
}

// TestDecodeCorrupt flips bytes all over a valid encoding; Decode must
// never panic (errors are fine, and silent misdecodes of flipped payload
// bytes are acceptable — the format carries no checksum).
func TestDecodeCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := randomLog(rng)
	data := l.Encode()
	for trial := 0; trial < 2000; trial++ {
		cp := append([]byte(nil), data...)
		for flips := 1 + rng.Intn(4); flips > 0; flips-- {
			cp[rng.Intn(len(cp))] ^= byte(1 + rng.Intn(255))
		}
		Decode(cp) // must not panic
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil input decoded")
	}
	if _, err := Decode([]byte("NOTANOPL")); err == nil {
		t.Fatal("bad magic decoded")
	}
}

func TestNoteIntern(t *testing.T) {
	a := NoteID("kernel.scale2x")
	b := NoteID("kernel.scale2x")
	if a == 0 || a != b {
		t.Fatalf("intern ids: %d vs %d", a, b)
	}
	if got := NoteString(a); got != "kernel.scale2x" {
		t.Fatalf("NoteString = %q", got)
	}
	if NoteID("") != 0 {
		t.Fatal("empty string must intern to 0")
	}
	if NoteString(0) != "" {
		t.Fatal("id 0 must resolve to empty")
	}
	if NoteString(1<<31) != "" {
		t.Fatal("unknown id must resolve to empty")
	}
}

func TestKindNames(t *testing.T) {
	for k := Kind(1); k < nKinds; k++ {
		if !k.Valid() {
			t.Fatalf("kind %d invalid", k)
		}
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if opInvalid.Valid() || nKinds.Valid() || Kind(200).Valid() {
		t.Fatal("invalid kinds reported valid")
	}
	if !OpSync.Input() || OpFault.Input() || !OpAlloc.Input() {
		t.Fatal("Input classification wrong")
	}
}

// --- ring tests ---

func TestRingBasic(t *testing.T) {
	r := NewRing(8)
	for i := 1; i <= 5; i++ {
		r.Record(Op{Kind: OpAlloc, Obj: uint32(i), At: sim.Time(i)})
	}
	ops := r.Ops()
	if len(ops) != 5 {
		t.Fatalf("got %d ops, want 5", len(ops))
	}
	for i, op := range ops {
		if op.Obj != uint32(i+1) {
			t.Fatalf("op %d: obj %d, want %d (order broken)", i, op.Obj, i+1)
		}
	}
	if r.Wrapped() {
		t.Fatal("5/8 ops reported wrapped")
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d", r.Total())
	}
}

func TestRingWrap(t *testing.T) {
	r := NewRing(8)
	for i := 1; i <= 20; i++ {
		r.Record(Op{Kind: OpFault, Obj: uint32(i)})
	}
	ops := r.Ops()
	if len(ops) != 8 {
		t.Fatalf("got %d ops, want 8", len(ops))
	}
	// Must retain exactly the most recent 8, oldest first.
	for i, op := range ops {
		if want := uint32(13 + i); op.Obj != want {
			t.Fatalf("op %d: obj %d, want %d", i, op.Obj, want)
		}
	}
	if !r.Wrapped() {
		t.Fatal("wrapped ring not reported")
	}
}

func TestRingCapacityRounding(t *testing.T) {
	if c := NewRing(100).Capacity(); c != 128 {
		t.Fatalf("capacity 100 -> %d, want 128", c)
	}
	if c := NewRing(0).Capacity(); c != DefaultRingCapacity {
		t.Fatalf("capacity 0 -> %d, want default", c)
	}
	if c := NewRing(1).Capacity(); c != 1 {
		t.Fatalf("capacity 1 -> %d", c)
	}
}

func TestRingHeader(t *testing.T) {
	r := NewRing(8)
	if h := r.Header(); h != (Header{}) {
		t.Fatalf("unset header = %+v", h)
	}
	r.SetHeader(Header{Protocol: 2, Label: "x"})
	if h := r.Header(); h.Protocol != 2 || h.Label != "x" {
		t.Fatalf("header = %+v", h)
	}
}

func TestRingReset(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 20; i++ {
		r.Record(Op{Kind: OpSync})
	}
	r.Reset()
	if len(r.Ops()) != 0 || r.Total() != 0 || r.Wrapped() {
		t.Fatal("reset ring not empty")
	}
}

// TestRingConcurrent hammers the ring from many goroutines while snapshots
// run; correctness here is "no race, no torn op, Total exact, and every
// slot left holding one distinct op".
// Run under -race for the interesting guarantee.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(1 << 10)
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(Op{
					Kind: OpHostRead,
					Mgr:  uint16(w),
					Obj:  uint32(i),
					Addr: mem.Addr(w)<<32 | mem.Addr(i),
					Size: int64(w*perWriter + i),
				})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, op := range r.Ops() {
				// A torn op would pair mismatched fields.
				if op.Addr != mem.Addr(op.Mgr)<<32|mem.Addr(op.Obj) {
					t.Errorf("torn op: %+v", op)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := r.Total(); got != writers*perWriter {
		t.Fatalf("Total = %d, want %d", got, writers*perWriter)
	}
	// With the writers done, every slot holds one whole op. A writer
	// pre-empted mid-store is lapped many times and each lap drops one op,
	// so the collision count depends on scheduling: it is logged, and only
	// its consistency with Total is checked.
	for i := range r.slots {
		// A seq that maps back to its own slot is unique across slots.
		seq := r.slots[i].seq.Load()
		if seq == 0 || seq > r.Total() || (seq-1)&r.mask != uint64(i) {
			t.Fatalf("slot %d holds seq %d (Total %d)", i, seq, r.Total())
		}
	}
	ops := r.Ops()
	if len(ops) != len(r.slots) {
		t.Fatalf("%d ops survive in a quiescent ring of %d slots", len(ops), len(r.slots))
	}
	ids := make(map[int64]bool, len(ops))
	for _, op := range ops {
		if op.Size != int64(op.Mgr)*perWriter+int64(op.Obj) || ids[op.Size] {
			t.Fatalf("torn or duplicated op: %+v", op)
		}
		ids[op.Size] = true
	}
	c := r.Collisions()
	t.Logf("%d collisions in %d records", c, r.Total())
	if uint64(len(ops))+c > r.Total() {
		t.Fatalf("%d surviving ops + %d collisions exceed Total %d", len(ops), c, r.Total())
	}
}

// TestRecordAllocs is the acceptance criterion: the record hot path must
// not allocate.
func TestRecordAllocs(t *testing.T) {
	r := NewRing(1 << 10)
	op := Op{Kind: OpFault, Flags: FlagWrite, Mgr: 1, Obj: 7,
		Addr: 0x1000, Size: 4096, Arg: 2, Note: NoteID("bench")}
	if n := testing.AllocsPerRun(1000, func() { r.Record(op) }); n != 0 {
		t.Fatalf("Record allocates %.1f times per op, want 0", n)
	}
}

func BenchmarkRingRecord(b *testing.B) {
	r := NewRing(1 << 12)
	op := Op{Kind: OpFault, Flags: FlagWrite, Obj: 7, Addr: 0x1000, Size: 4096}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op.At = sim.Time(i)
		r.Record(op)
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := randomLog(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Encode()
	}
}

// --- flight recorder tests ---

func TestFlightLog(t *testing.T) {
	flight.Reset()
	t.Cleanup(flight.Reset)
	flight.SetHeader(Header{Protocol: 1, Label: "orig"})
	flight.Record(Op{Kind: OpAlloc, Obj: 1})
	flight.Record(Op{Kind: OpFault, Obj: 1})
	l := FlightLog("test-reason")
	if l.Header.Flags&HdrFlight == 0 {
		t.Fatal("flight log missing HdrFlight")
	}
	if l.Header.Label != "test-reason" {
		t.Fatalf("label = %q", l.Header.Label)
	}
	if len(l.Ops) != 2 {
		t.Fatalf("got %d ops", len(l.Ops))
	}
	// Must round-trip like any other log.
	if _, err := Decode(l.Encode()); err != nil {
		t.Fatalf("flight log decode: %v", err)
	}
}

func TestAutoDump(t *testing.T) {
	flight.Reset()
	t.Cleanup(flight.Reset)
	flight.Record(Op{Kind: OpDeviceLost})

	t.Run("disabled", func(t *testing.T) {
		t.Setenv(EnvFlightDir, "off")
		if p := AutoDump("x"); p != "" {
			t.Fatalf("dump written while disabled: %s", p)
		}
	})
	t.Run("suppressed-under-test", func(t *testing.T) {
		t.Setenv(EnvFlightDir, "")
		if p := AutoDump("x"); p != "" {
			t.Fatalf("dump written with unset dir under go test: %s", p)
		}
	})
	t.Run("enabled", func(t *testing.T) {
		dir := t.TempDir()
		t.Setenv(EnvFlightDir, dir)
		p := AutoDump("unit test!")
		if p == "" {
			t.Fatal("no dump written")
		}
		if LastDump() != p {
			t.Fatalf("LastDump = %q, want %q", LastDump(), p)
		}
		data, err := os.ReadFile(p)
		if err != nil || len(data) == 0 {
			t.Fatalf("dump unreadable: %v (%d bytes)", err, len(data))
		}
		l, err := Decode(data)
		if err != nil {
			t.Fatalf("dump decode: %v", err)
		}
		if len(l.Ops) == 0 || l.Header.Flags&HdrFlight == 0 {
			t.Fatalf("dump log: %d ops, flags %#x", len(l.Ops), l.Header.Flags)
		}
	})
}

func TestSanitizeReason(t *testing.T) {
	cases := map[string]string{
		"":                   "dump",
		"device-lost":        "device-lost",
		"test-failure:Foo/x": "test-failure_Foo_x",
	}
	for in, want := range cases {
		if got := sanitizeReason(in); got != want {
			t.Errorf("sanitizeReason(%q) = %q, want %q", in, got, want)
		}
	}
}
