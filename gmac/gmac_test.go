package gmac

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/hostmmu"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/machine"
)

func newCtx(t *testing.T, p Protocol) *Context {
	t.Helper()
	m := machine.SmallTestbed()
	ctx, err := NewContext(m, Config{Protocol: p, BlockSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// registerSaxpy registers y = a*x + y over float32 arrays.
// args: xPtr, yPtr, n, aBits.
func registerSaxpy(ctx *Context) {
	ctx.Register(func() *Kernel { return saxpyKernel() })
}

func saxpyKernel() *Kernel {
	return &Kernel{
		Name: "saxpy",
		Run: func(dev *DeviceMemory, args []uint64) {
			x, y, n := mem.Addr(args[0]), mem.Addr(args[1]), int64(args[2])
			a := math.Float32frombits(uint32(args[3]))
			for i := int64(0); i < n; i++ {
				xi := dev.Float32(x + mem.Addr(i*4))
				yi := dev.Float32(y + mem.Addr(i*4))
				dev.SetFloat32(y+mem.Addr(i*4), a*xi+yi)
			}
		},
		Cost: func(args []uint64) (float64, int64) {
			n := int64(args[2])
			return 2 * float64(n), 12 * n
		},
	}
}

func TestTable1APIRoundTrip(t *testing.T) {
	// The complete Table 1 lifecycle under each protocol, verifying the
	// CPU observes accelerator results through plain view accesses.
	for _, p := range []Protocol{BatchUpdate, LazyUpdate, RollingUpdate} {
		t.Run(p.String(), func(t *testing.T) {
			ctx := newCtx(t, p)
			registerSaxpy(ctx)
			const n = 10000
			x, err := ctx.Alloc(n * 4)
			if err != nil {
				t.Fatal(err)
			}
			y, err := ctx.Alloc(n * 4)
			if err != nil {
				t.Fatal(err)
			}
			xv, err := ctx.Float32s(x, n)
			if err != nil {
				t.Fatal(err)
			}
			yv, err := ctx.Float32s(y, n)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < n; i++ {
				xv.Set(i, float32(i))
			}
			if err := yv.Fill(1); err != nil {
				t.Fatal(err)
			}
			if err := ctx.Call("saxpy", []uint64{uint64(x), uint64(y), n, uint64(math.Float32bits(2))}, Async()); err != nil {
				t.Fatal(err)
			}
			if err := ctx.Sync(); err != nil {
				t.Fatal(err)
			}
			for _, i := range []int64{0, 1, n / 2, n - 1} {
				want := float32(2*i + 1)
				if got := yv.At(i); got != want {
					t.Fatalf("y[%d] = %v, want %v", i, got, want)
				}
			}
			if err := ctx.Free(x); err != nil {
				t.Fatal(err)
			}
			if err := ctx.Free(y); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestIterativeKernelChaining(t *testing.T) {
	// Kernel output feeding the next invocation without CPU involvement
	// must not bounce through host memory under lazy/rolling.
	ctx := newCtx(t, RollingUpdate)
	registerSaxpy(ctx)
	const n = 4096
	x, _ := ctx.Alloc(n * 4)
	y, _ := ctx.Alloc(n * 4)
	xv, _ := ctx.Float32s(x, n)
	yv, _ := ctx.Float32s(y, n)
	xv.Fill(1)
	yv.Fill(0)
	base := ctx.Stats()
	for iter := 0; iter < 8; iter++ {
		if err := ctx.Call("saxpy", []uint64{uint64(x), uint64(y), n, uint64(math.Float32bits(1))}); err != nil {
			t.Fatal(err)
		}
	}
	st := ctx.Stats().Sub(base)
	// First call flushes the dirty init data; subsequent calls move nothing.
	if st.BytesH2D != 2*n*4 {
		t.Fatalf("iterative chaining re-sent data: H2D=%d want %d", st.BytesH2D, 2*n*4)
	}
	if st.BytesD2H != 0 {
		t.Fatalf("iterative chaining fetched untouched data: D2H=%d", st.BytesD2H)
	}
	if got := yv.At(7); got != 8 {
		t.Fatalf("y[7] = %v after 8 accumulations, want 8", got)
	}
}

func TestViewBounds(t *testing.T) {
	ctx := newCtx(t, LazyUpdate)
	p, _ := ctx.Alloc(64)
	if _, err := ctx.Float32s(p, 17); err == nil {
		t.Fatal("oversized view accepted")
	}
	if _, err := ctx.Float32s(p, -1); err == nil {
		t.Fatal("negative view accepted")
	}
	if _, err := ctx.Float32s(0xdead, 1); err == nil {
		t.Fatal("view of unshared memory accepted")
	}
	v, err := ctx.Float32s(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range At did not panic")
			}
		}()
		v.At(16)
	}()
}

func TestCopyInOutSum(t *testing.T) {
	ctx := newCtx(t, RollingUpdate)
	const n = 1000
	p, _ := ctx.Alloc(n * 4)
	v, _ := ctx.Float32s(p, n)
	src := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(src[i*4:], math.Float32bits(float32(i%10)))
	}
	if err := ctx.HostWrite(p, src); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if got, want := v.At(i), float32(i%10); got != want {
			t.Fatalf("element %d: %v != %v", i, got, want)
		}
	}
	sum, err := v.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if sum != 4500 {
		t.Fatalf("Sum = %v, want 4500", sum)
	}
}

// readU32 reads one little-endian uint32 of shared memory through the
// faulting host path.
func readU32(t *testing.T, s Session, p Ptr) uint32 {
	t.Helper()
	var b [4]byte
	if err := s.HostRead(p, b[:]); err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint32(b[:])
}

// writeU32 stores one little-endian uint32 into shared memory through the
// faulting host path.
func writeU32(t *testing.T, s Session, p Ptr, x uint32) {
	t.Helper()
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], x)
	if err := s.HostWrite(p, b[:]); err != nil {
		t.Fatal(err)
	}
}

func TestMemcpyInterposition(t *testing.T) {
	for _, p := range []Protocol{BatchUpdate, LazyUpdate, RollingUpdate} {
		t.Run(p.String(), func(t *testing.T) {
			ctx := newCtx(t, p)
			const size = 192 << 10 // 3 blocks of 64KB
			sp, _ := ctx.Alloc(size)
			src := make([]byte, size)
			for i := range src {
				src[i] = byte(i * 7)
			}
			base := ctx.Manager().Stats()
			if err := ctx.MemcpyToShared(sp, src); err != nil {
				t.Fatal(err)
			}
			if d := ctx.Manager().Stats().Sub(base); d.Faults != 0 {
				t.Fatalf("interposed memcpy took %d faults, want 0", d.Faults)
			}
			dst := make([]byte, size)
			if err := ctx.MemcpyFromShared(dst, sp); err != nil {
				t.Fatal(err)
			}
			for i := range dst {
				if dst[i] != src[i] {
					t.Fatalf("byte %d: %d != %d", i, dst[i], src[i])
				}
			}
		})
	}
}

func TestMemcpyUnalignedEdges(t *testing.T) {
	// A copy covering a partial first block, full middle block, partial
	// last block must merge correctly with surrounding data.
	ctx := newCtx(t, RollingUpdate)
	const size = 192 << 10
	sp, _ := ctx.Alloc(size)
	if err := ctx.Memset(sp, 0xee, size); err != nil {
		t.Fatal(err)
	}
	start := int64(32 << 10)
	payload := make([]byte, 128<<10)
	for i := range payload {
		payload[i] = 0x11
	}
	if err := ctx.MemcpyToShared(sp+Ptr(start), payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if err := ctx.MemcpyFromShared(got, sp); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < size; i++ {
		want := byte(0xee)
		if i >= start && i < start+int64(len(payload)) {
			want = 0x11
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
}

func TestMemsetShared(t *testing.T) {
	ctx := newCtx(t, LazyUpdate)
	sp, _ := ctx.Alloc(8192)
	if err := ctx.Memset(sp, 0x3c, 8192); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8192)
	if err := ctx.HostRead(sp, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0x3c {
			t.Fatalf("byte %d = %#x", i, b)
		}
	}
}

func TestMemcpySharedToShared(t *testing.T) {
	ctx := newCtx(t, RollingUpdate)
	a, _ := ctx.Alloc(4096)
	b, _ := ctx.Alloc(4096)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	if err := ctx.MemcpyToShared(a, src); err != nil {
		t.Fatal(err)
	}
	if err := ctx.MemcpyShared(b, a, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if err := ctx.MemcpyFromShared(got, b); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != src[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
}

// TestMemcpySharedBounds: MemcpyShared answers a negative length, or a
// range past either object's end, with an error and stages nothing, on
// both session types.
func TestMemcpySharedBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Session
	}{
		{"Context", newCtx(t, RollingUpdate)},
		{"MultiContext", newMulti(t, false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.s.Alloc(4096)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tc.s.Alloc(8192)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				dst, src Ptr
				n        int64
			}{
				{b, a, -1},
				{b, a, 4097},       // past the source's end
				{a, b, 4097},       // past the destination's end
				{b, a + 4000, 100}, // from inside the source, past its end
				{b + 8100, a, 100}, // from inside the destination, past its end
			} {
				if err := tc.s.MemcpyShared(c.dst, c.src, c.n); err == nil {
					t.Errorf("MemcpyShared(%#x, %#x, %d) succeeded", uint64(c.dst), uint64(c.src), c.n)
				}
			}
		})
	}
}

func TestReadWriteFileSharedObject(t *testing.T) {
	// The §4.4 scenario: fread into a shared object, kernel, write output
	// to disk — no explicit transfers anywhere.
	ctx := newCtx(t, RollingUpdate)
	registerSaxpy(ctx)
	m := ctx.Machine()
	const n = 64 << 10 // 256KB = 4 blocks
	input := make([]byte, n*4)
	for i := 0; i < n; i++ {
		// float32(1.0) little-endian
		input[i*4+2] = 0x80
		input[i*4+3] = 0x3f
	}
	m.FS.CreateWith("input.dat", input)

	x, _ := ctx.Alloc(n * 4)
	y, _ := ctx.Alloc(n * 4)
	f, err := m.FS.Open("input.dat")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ctx.ReadFile(f, x, n*4)
	if err != nil {
		t.Fatal(err)
	}
	if got != n*4 {
		t.Fatalf("ReadFile read %d bytes", got)
	}
	yv, _ := ctx.Float32s(y, n)
	yv.Fill(0.5)
	if err := ctx.Call("saxpy", []uint64{uint64(x), uint64(y), n, uint64(math.Float32bits(3))}); err != nil {
		t.Fatal(err)
	}
	out := m.FS.Create("output.dat")
	wrote, err := ctx.WriteFile(out, y, n*4)
	if err != nil {
		t.Fatal(err)
	}
	if wrote != n*4 {
		t.Fatalf("WriteFile wrote %d bytes", wrote)
	}
	data, _ := m.FS.Contents("output.dat")
	v := math.Float32frombits(uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24)
	if v != 3.5 {
		t.Fatalf("output[0] = %v, want 3.5", v)
	}
	// I/O time was charged.
	if m.FS.Stats().BytesRead != n*4 {
		t.Fatalf("fs read bytes = %d", m.FS.Stats().BytesRead)
	}
}

func TestReadFileShortFile(t *testing.T) {
	ctx := newCtx(t, LazyUpdate)
	m := ctx.Machine()
	m.FS.CreateWith("short", []byte{1, 2, 3})
	p, _ := ctx.Alloc(4096)
	f, _ := m.FS.Open("short")
	got, err := ctx.ReadFile(f, p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("ReadFile = %d, want 3 (EOF)", got)
	}
}

func TestIOOnUnsharedPointerRejected(t *testing.T) {
	ctx := newCtx(t, LazyUpdate)
	f := ctx.Machine().FS.Create("x")
	if _, err := ctx.ReadFile(f, 0x1234, 10); err == nil {
		t.Fatal("ReadFile to unshared pointer accepted")
	}
	if _, err := ctx.WriteFile(f, 0x1234, 10); err == nil {
		t.Fatal("WriteFile from unshared pointer accepted")
	}
}

func TestSafeAllocTranslation(t *testing.T) {
	ctx := newCtx(t, RollingUpdate)
	p, err := ctx.Alloc(4096, Safe())
	if err != nil {
		t.Fatal(err)
	}
	dp, err := ctx.Safe(p)
	if err != nil {
		t.Fatal(err)
	}
	if dp == p {
		t.Log("safe pointer happens to be identity mapped (allowed but unusual)")
	}
	if _, err := ctx.Safe(0x42); err == nil {
		t.Fatal("Safe of unshared pointer accepted")
	}
}

func TestContextString(t *testing.T) {
	ctx := newCtx(t, RollingUpdate)
	if !strings.Contains(ctx.String(), RollingUpdate.String()) {
		t.Fatal("context metadata wrong")
	}
	if ctx.Machine() == nil {
		t.Fatal("Machine() nil")
	}
}

func TestDefaultConfig(t *testing.T) {
	m := machine.SmallTestbed()
	ctx, err := NewContext(m, Config{Protocol: RollingUpdate})
	if err != nil {
		t.Fatal(err)
	}
	// Default block size applies.
	p, _ := ctx.Alloc(DefaultBlockSize * 2)
	obj := ctx.Manager().ObjectAt(p)
	if obj.Blocks() != 2 {
		t.Fatalf("default block size not applied: %d blocks", obj.Blocks())
	}
}

func TestVirtualTimeAdvancesWithWork(t *testing.T) {
	ctx := newCtx(t, RollingUpdate)
	registerSaxpy(ctx)
	const n = 1 << 20 // 4MB arrays
	x, _ := ctx.Alloc(n * 4)
	y, _ := ctx.Alloc(n * 4)
	xv, _ := ctx.Float32s(x, n)
	yv, _ := ctx.Float32s(y, n)
	xv.Fill(1)
	yv.Fill(2)
	t0 := ctx.Machine().Elapsed()
	if t0 == 0 {
		t.Fatal("init charged no virtual time")
	}
	if err := ctx.Call("saxpy", []uint64{uint64(x), uint64(y), n, uint64(math.Float32bits(1))}); err != nil {
		t.Fatal(err)
	}
	if ctx.Machine().Elapsed() <= t0 {
		t.Fatal("kernel charged no virtual time")
	}
	bd := ctx.Machine().Breakdown
	if bd.Get(sim.CatGPU) == 0 || bd.Get(sim.CatCPU) == 0 {
		t.Fatalf("breakdown missing slices: %s", bd)
	}
}

// TestSessionAPIPipeline drives the full Session surface through one
// pipeline: kernel-bound and safe allocations, an annotated asynchronous
// call with an explicit Sync, then a plain synchronous call. It replaces
// the removed pre-Session wrapper compatibility test and pins the same
// numerical result.
func TestSessionAPIPipeline(t *testing.T) {
	ctx := newCtx(t, RollingUpdate)
	ctx.Register(saxpyKernel)
	const n = 1024
	x, err := ctx.Alloc(n*4, ForKernels("saxpy"))
	if err != nil {
		t.Fatal(err)
	}
	y, err := ctx.Alloc(n*4, Safe())
	if err != nil {
		t.Fatal(err)
	}
	xv, _ := ctx.Float32s(x, n)
	yv, _ := ctx.Float32s(y, n)
	xv.Fill(1)
	yv.Fill(1)
	// Safe allocations are not identity-mapped: the kernel needs the
	// device translation, re-acquired after every launch.
	dy, err := ctx.Safe(y)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Call("saxpy",
		[]uint64{uint64(x), uint64(dy), n, uint64(math.Float32bits(2))},
		Writes(y), Async()); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Sync(); err != nil {
		t.Fatal(err)
	}
	dy, err = ctx.Safe(y)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Call("saxpy",
		[]uint64{uint64(x), uint64(dy), n, uint64(math.Float32bits(1))}); err != nil {
		t.Fatal(err)
	}
	if got := yv.At(7); got != 4 { // 1 + 2*1 = 3, then 3 + 1*1 = 4
		t.Fatalf("pipeline result = %v, want 4", got)
	}
}

// TestAsyncKernelsShareOneSync: two asynchronous calls, each on an object
// bound to its own kernel (ForKernels), then one Sync. Under batch-update
// the Sync must fetch both objects back, not only those of the kernel
// launched last; a second Sync with nothing launched since must then leave
// the host's newer writes alone.
func TestAsyncKernelsShareOneSync(t *testing.T) {
	ctx := newCtx(t, BatchUpdate)
	var objs [2]Ptr
	for i, k := range []string{"bumpA", "bumpB"} {
		registerBump(ctx, k)
		var err error
		if objs[i], err = ctx.Alloc(4096, ForKernels(k)); err != nil {
			t.Fatal(err)
		}
		if err := ctx.Call(k, []uint64{uint64(objs[i]), 1, 4096}, Async()); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctx.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, p := range objs {
		if got := readU32(t, ctx, p); got != 1 {
			t.Fatalf("object %d counter = %d after the shared Sync, want 1", i, got)
		}
		writeU32(t, ctx, p, 7)
	}
	if err := ctx.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, p := range objs {
		if got := readU32(t, ctx, p); got != 7 {
			t.Fatalf("object %d = %d after an idle Sync, want the host's 7", i, got)
		}
	}
}

// TestFreedObjectViewsReadZeros: typed views of an object allocated over a
// freed one's host memory read zeros, element by element and in bulk.
func TestFreedObjectViewsReadZeros(t *testing.T) {
	const n = 16 << 10 // float32s: 64 KiB, sixteen pages
	for _, p := range []Protocol{BatchUpdate, LazyUpdate, RollingUpdate} {
		t.Run(p.String(), func(t *testing.T) {
			ctx := newCtx(t, p)
			// The freed backing is pooled only while little next to the
			// bytes still mapped.
			if _, err := ctx.Alloc(64 * n); err != nil {
				t.Fatal(err)
			}
			old, err := ctx.Alloc(4 * n)
			if err != nil {
				t.Fatal(err)
			}
			v, err := ctx.Float32s(old, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := v.Fill(-1.5); err != nil {
				t.Fatal(err)
			}
			backing, err := ctx.hostBytes(old, 4*n, hostmmu.AccessRead)
			if err != nil {
				t.Fatal(err)
			}
			if err := ctx.Free(old); err != nil {
				t.Fatal(err)
			}
			q, err := ctx.Alloc(4 * n)
			if err != nil {
				t.Fatal(err)
			}
			f, err := ctx.Float32s(q, n)
			if err != nil {
				t.Fatal(err)
			}
			const perPage = 1024
			if x := f.At(0*perPage + 5); x != 0 {
				t.Errorf("Float32View.At = %v", x)
			}
			f.Set(3*perPage, 2)
			if x := f.At(3*perPage + 1); x != 0 {
				t.Errorf("the element after a Set = %v", x)
			}
			if sum, err := f.Sum(); err != nil || sum != 2 {
				t.Errorf("Sum = %v, %v; want only the Set's 2", sum, err)
			}
			now, err := ctx.hostBytes(q, 4*n, hostmmu.AccessRead)
			if err != nil {
				t.Fatal(err)
			}
			if unsafe.SliceData(now) != unsafe.SliceData(backing) {
				t.Fatal("the new object got a fresh backing: nothing here tested a recycled one")
			}
		})
	}
}
