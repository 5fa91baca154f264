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
// searches, one shard's published spans, at several populations.
func BenchmarkBlockLookup(b *testing.B) {
	for _, objects := range []int{16, 1 << 10, 64 << 10} {
		var sh regShard
		run := make([]span[Block], objects)
		for i := range run {
			run[i] = span[Block]{mem.Addr(i) << 12, mem.Addr(i+1) << 12, &Block{}}
		}
		if err := sh.blocks.insert(run); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("spanset/%dobjects", objects), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v, _ := sh.blocks.find(&sh, mem.Addr(i%objects)<<12+128); v == nil {
					b.Fatal("lookup miss")
				}
			}
		})
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
		if err := r.mgr.Invoke("nop"); err != nil {
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
