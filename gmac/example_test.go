package gmac_test

import (
	"encoding/binary"
	"fmt"
	"log"

	"repro/gmac"
	"repro/machine"
)

// Example demonstrates the complete Table 1 lifecycle: one pointer, no
// explicit transfers, release consistency at call/return.
func Example() {
	m := machine.PaperTestbed()
	ctx, err := gmac.NewContext(m, gmac.Config{Protocol: gmac.RollingUpdate})
	if err != nil {
		log.Fatal(err)
	}
	const n = 1024
	ctx.Register(func() *gmac.Kernel {
		return &gmac.Kernel{
			Name: "triple",
			Run: func(dev *gmac.DeviceMemory, args []uint64) {
				p := gmac.Ptr(args[0])
				for i := int64(0); i < n; i++ {
					dev.SetFloat32(p+gmac.Ptr(i*4), 3*dev.Float32(p+gmac.Ptr(i*4)))
				}
			},
		}
	})
	p, _ := ctx.Alloc(n * 4) // adsmAlloc
	v, _ := ctx.Float32s(p, n)
	v.Fill(2)                               // CPU write
	ctx.Call("triple", []uint64{uint64(p)}) // adsmCall + adsmSync
	fmt.Println("v[0] =", v.At(0))          // CPU read of kernel output
	fmt.Println("v[n-1] =", v.At(n-1))      // scattered read: one block fetch
	fmt.Println("free:", ctx.Free(p) == nil)
	// Output:
	// v[0] = 6
	// v[n-1] = 6
	// free: true
}

// ExampleContext_ReadFile shows the §4.4 peer-DMA illusion: a shared
// pointer goes straight into the read path.
func ExampleContext_ReadFile() {
	m := machine.PaperTestbed()
	ctx, err := gmac.NewContext(m, gmac.Config{Protocol: gmac.RollingUpdate})
	if err != nil {
		log.Fatal(err)
	}
	m.FS.CreateWith("samples.dat", []byte("heterogeneous"))
	p, _ := ctx.Alloc(64)
	f, _ := m.FS.Open("samples.dat")
	nread, _ := ctx.ReadFile(f, p, 13) // read(fd, sharedPtr, 13)
	buf := make([]byte, nread)
	if err := ctx.HostRead(p, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d bytes: %s\n", nread, buf)
	// Output:
	// 13 bytes: heterogeneous
}

// ExampleContext_Call shows the §4.3 write-set annotation via the Writes
// option: the read-only table stays CPU-valid across the call.
func ExampleContext_Call() {
	m := machine.PaperTestbed()
	ctx, err := gmac.NewContext(m, gmac.Config{Protocol: gmac.RollingUpdate})
	if err != nil {
		log.Fatal(err)
	}
	ctx.Register(func() *gmac.Kernel {
		return &gmac.Kernel{
			Name: "sum",
			Run: func(dev *gmac.DeviceMemory, args []uint64) {
				table, out := gmac.Ptr(args[0]), gmac.Ptr(args[1])
				var s uint32
				for i := int64(0); i < 256; i++ {
					s += dev.Uint32(table + gmac.Ptr(i*4))
				}
				dev.SetUint32(out, s)
			},
		}
	})
	table, _ := ctx.Alloc(1024)
	out, _ := ctx.Alloc(4)
	ones := make([]byte, 1024)
	for i := 0; i < len(ones); i += 4 {
		binary.LittleEndian.PutUint32(ones[i:], 1)
	}
	if err := ctx.HostWrite(table, ones); err != nil {
		log.Fatal(err)
	}
	before := ctx.Stats().BytesD2H
	if err := ctx.Call("sum", []uint64{uint64(table), uint64(out)}, gmac.Writes(out)); err != nil {
		log.Fatal(err)
	}
	if err := ctx.Sync(); err != nil {
		log.Fatal(err)
	}
	// Reading the table costs nothing: it was not written.
	if err := ctx.HostRead(table, ones); err != nil {
		log.Fatal(err)
	}
	sum := make([]byte, 4)
	if err := ctx.HostRead(out, sum); err != nil {
		log.Fatal(err)
	}
	fmt.Println("sum =", binary.LittleEndian.Uint32(sum))
	fmt.Println("table re-fetched:", ctx.Stats().BytesD2H-before > 4096)
	// Output:
	// sum = 256
	// table re-fetched: false
}

// ExampleAnalyzeRaces records a session and judges the recorded stream:
// reading a kernel's output back without Sync races with the kernel's
// declared write.
func ExampleAnalyzeRaces() {
	m := machine.SmallTestbed()
	defer m.Close()
	ctx, err := gmac.NewContext(m, gmac.Config{Protocol: gmac.RollingUpdate, BlockSize: 4 << 10})
	if err != nil {
		log.Fatal(err)
	}
	ctx.EnableRecorder(1 << 12) // must hold the whole run
	ctx.Register(func() *gmac.Kernel {
		return &gmac.Kernel{Name: "fill", Run: func(*gmac.DeviceMemory, []uint64) {}}
	})
	p, err := ctx.Alloc(16 << 10)
	if err != nil {
		log.Fatal(err)
	}
	if err := ctx.Call("fill", []uint64{uint64(p)}, gmac.Writes(p), gmac.Async()); err != nil {
		log.Fatal(err)
	}
	if err := ctx.HostRead(p, make([]byte, 64)); err != nil { // no Sync before the read-back
		log.Fatal(err)
	}
	if err := ctx.Sync(); err != nil {
		log.Fatal(err)
	}

	l, err := ctx.FinishOpLog("readback")
	if err != nil {
		log.Fatal(err)
	}
	rep := gmac.AnalyzeRaces(l)
	fmt.Println("races:", rep.Count)
	r := rep.Races[0]
	fmt.Println(r.Kind, r.Prior.Op, r.Prior.Kernel, "->", r.Access.Op)
	// Output:
	// races: 1
	// write-read kernel-write fill -> host-read
}
