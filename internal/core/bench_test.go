package core

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// Micro-benchmarks of the runtime's hot paths: what the Go implementation
// itself costs per operation, independent of the virtual-time model. The
// fault paths are timed by BenchmarkCostModel (cost_test.go).

// BenchmarkBlockLookup times the registry read path the fault handler
// takes, registry.blockAt, over N 4 KiB blocks laid out as one N-block
// object and as N one-block objects.
func BenchmarkBlockLookup(b *testing.B) {
	for _, blocks := range []int{16, 1 << 10, 64 << 10} {
		for _, layout := range []string{"1obj", "objs"} {
			var reg registry
			per := blocks // blocks per object
			if layout == "objs" {
				per = 1
			}
			for base := 0; base < blocks; base += per {
				o := &Object{addr: mem.Addr(1<<30 + base<<12), size: int64(per) << 12}
				o.makeBlocks(1<<12, testPage)
				if err := reg.insertObject(o); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(fmt.Sprintf("%dblocks/%s", blocks, layout), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if v, _ := reg.blockAt(mem.Addr(1<<30+(i%blocks)<<12) + 128); v == nil {
						b.Fatal("lookup miss")
					}
				}
			})
		}
	}
}

// BenchmarkHostWriteThroughput measures bulk writes through the faulting
// path at a realistic block size.
func BenchmarkHostWriteThroughput(b *testing.B) {
	r := newRig(b, defaultCfg(RollingUpdate))
	ptr, err := r.mgr.Alloc(64 << 20)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%64) << 20
		if err := r.mgr.HostWrite(ptr+mem.Addr(off), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvokeSyncLoop measures the per-iteration runtime overhead of
// the call/return boundary with nothing dirty.
func BenchmarkInvokeSyncLoop(b *testing.B) {
	r := newRig(b, defaultCfg(RollingUpdate))
	r.registerNop(b)
	if _, err := r.mgr.Alloc(16 << 20); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.mgr.InvokeHinted("nop", CallHints{}); err != nil {
			b.Fatal(err)
		}
		if err := r.mgr.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocFree measures the shared-allocation path (device alloc +
// host mapping + registry insert).
func BenchmarkAllocFree(b *testing.B) {
	r := newRig(b, defaultCfg(LazyUpdate))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := r.mgr.Alloc(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.mgr.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}
