package osabs

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/interconnect"
	"repro/internal/sim"
)

func freeFS() *FS { return NewFS(nil, nil, nil) }

func chargedFS() (*FS, *sim.Clock, *sim.Breakdown) {
	clock := sim.NewClock()
	bd := sim.NewBreakdown()
	disk := &interconnect.Link{Name: "disk", Latency: sim.Millisecond, PeakBps: 100e6}
	return NewFS(disk, clock, bd), clock, bd
}

func TestCreateWriteReadBack(t *testing.T) {
	fs := freeFS()
	f := fs.Create("input.dat")
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if n, err := f.Read(buf); n != 5 || err != nil {
		t.Fatalf("read %d %v", n, err)
	}
	if string(buf) != "hello" {
		t.Fatalf("read back %q", buf)
	}
	// Continue from position.
	rest, _ := io.ReadAll(f)
	if string(rest) != " world" {
		t.Fatalf("rest = %q", rest)
	}
}

func TestOpenMissing(t *testing.T) {
	fs := freeFS()
	if _, err := fs.Open("nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
	if _, err := fs.Size("nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Size err = %v", err)
	}
}

func TestCreateWithAndContents(t *testing.T) {
	fs := freeFS()
	data := []byte{1, 2, 3, 4}
	fs.CreateWith("a", data)
	got, err := fs.Contents("a")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("contents %v %v", got, err)
	}
	// Contents is a copy.
	got[0] = 99
	again, _ := fs.Contents("a")
	if again[0] != 1 {
		t.Fatal("Contents returned a live slice")
	}
	if sz, _ := fs.Size("a"); sz != 4 {
		t.Fatalf("size %d", sz)
	}
}

func TestReadEOF(t *testing.T) {
	fs := freeFS()
	fs.CreateWith("a", []byte("xy"))
	f, _ := fs.Open("a")
	buf := make([]byte, 10)
	n, err := f.Read(buf)
	if n != 2 || err != nil {
		t.Fatalf("first read %d %v", n, err)
	}
	if _, err := f.Read(buf); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestWriteGrowsAndOverwrites(t *testing.T) {
	fs := freeFS()
	f := fs.Create("a")
	f.Write([]byte("aaaa"))
	f.Seek(2, io.SeekStart)
	f.Write([]byte("BBBB")) // overwrite 2, grow by 2
	got, _ := fs.Contents("a")
	if string(got) != "aaBBBB" {
		t.Fatalf("contents %q", got)
	}
}

func TestSeekWhence(t *testing.T) {
	fs := freeFS()
	fs.CreateWith("a", []byte("0123456789"))
	f, _ := fs.Open("a")
	if pos, _ := f.Seek(-3, io.SeekEnd); pos != 7 {
		t.Fatalf("SeekEnd pos %d", pos)
	}
	if pos, _ := f.Seek(1, io.SeekCurrent); pos != 8 {
		t.Fatalf("SeekCurrent pos %d", pos)
	}
	if _, err := f.Seek(-100, io.SeekStart); err == nil {
		t.Fatal("negative seek succeeded")
	}
	if _, err := f.Seek(0, 42); err == nil {
		t.Fatal("bad whence succeeded")
	}
}

func TestClosedHandle(t *testing.T) {
	fs := freeFS()
	f := fs.Create("a")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(nil); !errors.Is(err, ErrClosed) {
		t.Fatal("read on closed handle")
	}
	if _, err := f.Write(nil); !errors.Is(err, ErrClosed) {
		t.Fatal("write on closed handle")
	}
	if _, err := f.Seek(0, io.SeekStart); !errors.Is(err, ErrClosed) {
		t.Fatal("seek on closed handle")
	}
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Fatal("double close")
	}
}

func TestList(t *testing.T) {
	fs := freeFS()
	fs.CreateWith("b", nil)
	fs.CreateWith("a", nil)
	got := fs.List()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("List = %v", got)
	}
}

func TestIOChargesTimeAndBreakdown(t *testing.T) {
	fs, clock, bd := chargedFS()
	fs.CreateWith("in", make([]byte, 100e6)) // 1 second at 100 MB/s
	f, _ := fs.Open("in")
	buf := make([]byte, 100e6)
	io.ReadFull(f, buf)
	if clock.Now() < sim.Second {
		t.Fatalf("100MB read charged only %v", clock.Now())
	}
	if bd.Get(sim.CatIORead) != clock.Now() {
		t.Fatalf("IORead bucket %v != clock %v", bd.Get(sim.CatIORead), clock.Now())
	}
	before := clock.Now()
	out := fs.Create("out")
	out.Write(make([]byte, 50e6))
	wrote := clock.Now() - before
	if wrote < 500*sim.Millisecond {
		t.Fatalf("50MB write charged only %v", wrote)
	}
	st := fs.Stats()
	if st.BytesRead != 100e6 || st.BytesWritten != 50e6 {
		t.Fatalf("stats %+v", st)
	}
	if st.ReadTime == 0 || st.WriteTime == 0 {
		t.Fatalf("io times not recorded: %+v", st)
	}
}

func TestTruncateOnCreate(t *testing.T) {
	fs := freeFS()
	fs.CreateWith("a", []byte("old"))
	fs.Create("a")
	if sz, _ := fs.Size("a"); sz != 0 {
		t.Fatalf("Create did not truncate: %d", sz)
	}
}
