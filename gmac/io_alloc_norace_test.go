//go:build !race

package gmac

import (
	"io"
	"testing"

	"repro/machine"
)

// The interposed I/O path stages every chunk through a pooled buffer and
// resolves its faults through the allocation-free hot path, so in steady
// state a ReadFile/WriteFile call must not allocate at all: mri-class
// workloads stream hundreds of megabytes through here (Figure 10's IORead
// share) and per-chunk garbage would dominate the runtime's own cost.
//
// Race-mode sync.Pool drops Puts by design, so these pins hold only without
// -race; TestIOBufPoolOversized (io_alloc_test.go) runs in both modes.

func ioAllocRig(t *testing.T) (*Context, *machine.Machine, Ptr, int64) {
	t.Helper()
	m := machine.SmallTestbed()
	// Pin the rolling cache above the object's block count so the steady
	// state keeps blocks Dirty in place: the test isolates the interposed
	// I/O path itself (staging buffers + block walk), not the eviction DMA.
	ctx, err := NewContext(m, Config{Protocol: RollingUpdate, BlockSize: 64 << 10, FixedRolling: 64})
	if err != nil {
		t.Fatal(err)
	}
	const size = 512 << 10 // two pooled chunks per call
	p, err := ctx.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, m, p, size
}

func TestReadFileSteadyStateAllocs(t *testing.T) {
	ctx, m, p, size := ioAllocRig(t)
	m.FS.CreateWith("in.dat", make([]byte, size))
	f, err := m.FS.Open("in.dat")
	if err != nil {
		t.Fatal(err)
	}
	read := func() {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if got, err := ctx.ReadFile(f, p, size); err != nil || got != size {
			t.Fatalf("ReadFile = (%d, %v)", got, err)
		}
	}
	read() // warm-up: first faults, pool population
	if avg := testing.AllocsPerRun(10, read); avg > 0 {
		t.Errorf("steady-state ReadFile allocates %.1f times per call, want 0", avg)
	}
}

func TestWriteFileSteadyStateAllocs(t *testing.T) {
	ctx, m, p, size := ioAllocRig(t)
	if err := ctx.HostWrite(p, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	f := m.FS.Create("out.dat")
	write := func() {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if got, err := ctx.WriteFile(f, p, size); err != nil || got != size {
			t.Fatalf("WriteFile = (%d, %v)", got, err)
		}
	}
	write() // warm-up: sizes the file, populates the pool
	if avg := testing.AllocsPerRun(10, write); avg > 0 {
		t.Errorf("steady-state WriteFile allocates %.1f times per call, want 0", avg)
	}
}
