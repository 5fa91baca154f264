// Multigpu: two accelerators, one application — demonstrating the §4.2
// address-conflict fallback (adsmSafeAlloc/adsmSafe) and data-affinity
// kernel routing in GMAC's top layer.
//
// Part 1 attaches two GPUs whose on-board memories report the same
// address window (exactly what cudaMalloc on two devices does): the
// second device's allocation cannot be identity-mapped into the host
// address space, so the runtime falls back to SafeAlloc and the pointer
// must be translated for kernels. This is the case for which the paper
// argues accelerators need virtual memory.
//
// Part 2 runs the full runtime over two GPUs (gmac.MultiContext): objects
// are placed round-robin and each call is routed to the device that hosts
// its operand.
//
//	go run ./examples/multigpu
package main

import (
	"fmt"
	"log"

	"repro/gmac"
	"repro/internal/accel"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/machine"
)

const n = 1 << 18

// doubleOne seeds one shared object, doubles it on whichever accelerator
// hosts it, and reads the result back — written once against gmac.Session
// so the same code path serves single- and multi-GPU runs.
func doubleOne(s gmac.Session, p gmac.Ptr, seed byte) (byte, error) {
	if err := s.HostWrite(p, []byte{seed, 0, 0, 0}); err != nil {
		return 0, err
	}
	if err := s.Call("double", []uint64{uint64(p), n}); err != nil {
		return 0, err
	}
	got := make([]byte, 4)
	if err := s.HostRead(p, got); err != nil {
		return 0, err
	}
	return got[0], nil
}

func gpu(name string, base mem.Addr, clock *sim.Clock) *accel.Device {
	return accel.New(accel.Config{
		Name:    name,
		MemBase: base,
		MemSize: 256 << 20,
		GFLOPS:  933,
		MemLink: interconnect.G280Memory(),
		H2D:     interconnect.PCIe2x16H2D(),
		D2H:     interconnect.PCIe2x16D2H(),
	}, clock)
}

func main() {
	fmt.Println("--- part 1: overlapping device windows force SafeAlloc ---")
	clock := sim.NewClock()
	va := mem.NewVASpace(0x7f00_0000_0000, 0x7f80_0000_0000)
	same0 := gpu("gpu0", 0x2_0000_0000, clock)
	same1 := gpu("gpu1", 0x2_0000_0000, clock) // same window, like real cudaMalloc
	defer same0.Close()
	defer same1.Close()

	allocate := func(d *accel.Device) (host, dev mem.Addr) {
		devPtr, err := d.Malloc(n * 4)
		if err != nil {
			log.Fatal(err)
		}
		if m, err := va.MapFixed(devPtr, n*4); err == nil {
			fmt.Printf("%s: identity-mapped shared object at %#x\n", d.Name(), uint64(m.Addr))
			return m.Addr, devPtr
		}
		m, err := va.MapAnywhere(n * 4)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: address conflict -> SafeAlloc host=%#x dev=%#x (adsmSafe translates)\n",
			d.Name(), uint64(m.Addr), uint64(devPtr))
		return m.Addr, devPtr
	}
	host0, dev0 := allocate(same0)
	host1, dev1 := allocate(same1)
	if host0 != dev0 {
		log.Fatal("first allocation should be identity-mapped")
	}
	if host1 == dev1 {
		log.Fatal("second allocation should have conflicted")
	}

	fmt.Println("\nwith overlapping windows, data affinity is undecidable from the address:")
	fmt.Println("the paper's case for virtual memory on accelerators (§4.2).")

	fmt.Println("\n--- part 2: the full runtime view (gmac.MultiContext) ---")
	mm := machine.DualGPUTestbed(false)
	defer mm.Close()
	mc, err := gmac.NewMultiContext(mm, gmac.Config{Protocol: gmac.RollingUpdate})
	if err != nil {
		log.Fatal(err)
	}
	mc.Register(func() *gmac.Kernel {
		return &gmac.Kernel{
			Name: "double",
			Run: func(dev *gmac.DeviceMemory, args []uint64) {
				p, cnt := gmac.Ptr(args[0]), int64(args[1])
				for i := int64(0); i < cnt; i++ {
					dev.SetUint32(p+gmac.Ptr(i*4), 2*dev.Uint32(p+gmac.Ptr(i*4)))
				}
			},
			Cost: accel.FixedCost(1e6, 1<<20),
		}
	})
	var objs []gmac.Ptr
	for i := 0; i < 4; i++ {
		p, err := mc.Alloc(n * 4) // round-robin placement across GPUs
		if err != nil {
			log.Fatal(err)
		}
		objs = append(objs, p)
		fmt.Printf("object %d -> device %d (identity-mapped: %v)\n", i, mc.Owner(p), mc.Identity(p))
	}
	for i, p := range objs {
		// doubleOne is written against gmac.Session, so the identical code
		// drives a single-GPU Context or this MultiContext.
		got, err := doubleOne(mc, p, byte(i+1))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("object %d on device %d: %d -> %d\n", i, mc.Owner(p), i+1, got)
	}
	st := mc.Stats()
	fmt.Printf("\naggregate: %d kernels, %d faults, %d KB moved\n",
		st.Invokes, st.Faults, (st.BytesH2D+st.BytesD2H)>>10)
}
