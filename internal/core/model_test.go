package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/accel"
	"repro/internal/mem"
	"repro/internal/testutil"
)

// TestCoherenceAgainstReferenceModel drives a shared object with a random
// interleaving of every data path the manager offers — faulting CPU reads
// and writes, interposed bulk memcpy/memset, peer DMA, plain and annotated
// kernel invocations — and checks after every read that the observed bytes
// match a flat reference model. This is the repository's strongest
// coherence oracle: any protocol bug that loses, duplicates, or reorders
// an update shows up as a byte mismatch.
func TestCoherenceAgainstReferenceModel(t *testing.T) {
	const objSize = 256 << 10
	configs := []struct {
		name string
		cfg  Config
		mode AccessMode
	}{
		{"batch", defaultCfg(BatchUpdate), ModeReadWrite},
		{"lazy", defaultCfg(LazyUpdate), ModeReadWrite},
		{"rolling-64k", defaultCfg(RollingUpdate), ModeReadWrite},
		{"rolling-4k-rs1", func() Config {
			c := defaultCfg(RollingUpdate)
			c.BlockSize = 4 << 10
			c.FixedRolling = 1
			return c
		}(), ModeReadWrite},
		{"rolling-16k-rs3", func() Config {
			c := defaultCfg(RollingUpdate)
			c.BlockSize = 16 << 10
			c.FixedRolling = 3
			return c
		}(), ModeReadWrite},
		// Auto objects leave the configured protocol mid-run: every data
		// path must follow the object's protocol, not the manager's. The
		// batch row is the sharp one — batch-update is signal-free, so the
		// object always probes out to lazy-update.
		{"auto-on-batch", defaultCfg(BatchUpdate), ModeAuto},
		{"auto-on-lazy", defaultCfg(LazyUpdate), ModeAuto},
		{"auto-on-rolling", defaultCfg(RollingUpdate), ModeAuto},
	}
	for _, tc := range configs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range testutil.Seeds(t, 1, 6) {
				r := newRig(t, tc.cfg)
				if err := runModelOn(r, tc.mode, seed, objSize); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				// 120 ops carry ~26 call/sync pairs, far past the 8-boundary
				// probe-out; a run that never migrated tested nothing new.
				if tc.mode == ModeAuto && tc.cfg.Protocol == BatchUpdate && r.mgr.Stats().ModeMigrations < 1 {
					t.Fatalf("seed %d: the Auto object never left batch-update", seed)
				}
			}
		})
	}
}

// runModelOn executes one random schedule against a pre-built rig, so the
// chaos suite can arm the rig's device with a fault injector first. The
// flat reference model is fault-free by construction: a run under a
// recoverable fault schedule must still match it byte for byte.
func runModelOn(r *rig, mode AccessMode, seed int64, objSize int64) error {
	rng := rand.New(rand.NewSource(seed))

	// The device kernel XORs a pattern over a range of the object:
	// args = ptr, off, n, pattern.
	r.dev.Register(&accel.Kernel{
		Name: "model.xor",
		Run: func(dev *mem.Space, args []uint64) {
			p, off, n := mem.Addr(args[0]), int64(args[1]), int64(args[2])
			pat := byte(args[3])
			buf := dev.Bytes(p+mem.Addr(off), n)
			for i := range buf {
				buf[i] ^= pat
			}
		},
		Cost: accel.FixedCost(1e5, 1<<16),
	})

	ptr, err := r.mgr.AllocObject(AllocSpec{Size: objSize, Mode: mode})
	if err != nil {
		return err
	}
	ref := make([]byte, objSize)
	// Both copies start zeroed (host mapping zeroed; device allocator
	// memory is zeroed at machine construction and this is the first
	// allocation of the arena). Establish it explicitly anyway.
	if err := r.mgr.BulkSet(ptr, 0, objSize); err != nil {
		return err
	}

	span := func() (int64, int64) {
		off := rng.Int63n(objSize)
		n := rng.Int63n(objSize-off) + 1
		return off, n
	}
	fill := func(n int64) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	check := func(what string, off int64, got []byte) error {
		if !bytes.Equal(got, ref[off:off+int64(len(got))]) {
			i := 0
			for ; i < len(got) && got[i] == ref[off+int64(i)]; i++ {
			}
			return fmt.Errorf("%s diverged at byte %d (off %d, len %d): got %#x want %#x",
				what, off+int64(i), off, len(got), got[i], ref[off+int64(i)])
		}
		return nil
	}

	for op := 0; op < 120; op++ {
		switch rng.Intn(9) {
		case 0: // faulting CPU write
			off, n := span()
			data := fill(n)
			if err := r.mgr.HostWrite(ptr+mem.Addr(off), data); err != nil {
				return err
			}
			copy(ref[off:], data)
		case 1: // faulting CPU read
			off, n := span()
			got := make([]byte, n)
			if err := r.mgr.HostRead(ptr+mem.Addr(off), got); err != nil {
				return err
			}
			if err := check("HostRead", off, got); err != nil {
				return err
			}
		case 2: // interposed memcpy in
			off, n := span()
			data := fill(n)
			if err := r.mgr.BulkWrite(ptr+mem.Addr(off), data); err != nil {
				return err
			}
			copy(ref[off:], data)
		case 3: // interposed memcpy out
			off, n := span()
			got := make([]byte, n)
			if err := r.mgr.BulkRead(ptr+mem.Addr(off), got); err != nil {
				return err
			}
			if err := check("BulkRead", off, got); err != nil {
				return err
			}
		case 4: // interposed memset
			off, n := span()
			v := byte(rng.Intn(256))
			if err := r.mgr.BulkSet(ptr+mem.Addr(off), v, n); err != nil {
				return err
			}
			for i := off; i < off+n; i++ {
				ref[i] = v
			}
		case 5: // peer DMA in
			off, n := span()
			data := fill(n)
			if err := r.mgr.PeerWrite(ptr+mem.Addr(off), data); err != nil {
				return err
			}
			copy(ref[off:], data)
		case 6: // peer DMA out
			off, n := span()
			got := make([]byte, n)
			if err := r.mgr.PeerRead(ptr+mem.Addr(off), got); err != nil {
				return err
			}
			if err := check("PeerRead", off, got); err != nil {
				return err
			}
		case 7: // kernel call + sync
			off, n := span()
			pat := byte(rng.Intn(255) + 1)
			if err := r.mgr.Invoke("model.xor", uint64(ptr), uint64(off), uint64(n), uint64(pat)); err != nil {
				return err
			}
			if err := r.mgr.Sync(); err != nil {
				return err
			}
			for i := off; i < off+n; i++ {
				ref[i] ^= pat
			}
		case 8: // annotated kernel call + sync
			off, n := span()
			pat := byte(rng.Intn(255) + 1)
			if err := r.mgr.InvokeAnnotated("model.xor", []mem.Addr{ptr},
				uint64(ptr), uint64(off), uint64(n), uint64(pat)); err != nil {
				return err
			}
			if err := r.mgr.Sync(); err != nil {
				return err
			}
			for i := off; i < off+n; i++ {
				ref[i] ^= pat
			}
		}
		if op%10 == 9 {
			if err := r.mgr.CheckInvariants(); err != nil {
				return fmt.Errorf("after op %d: %w", op, err)
			}
		}
	}
	// Final full read through the faulting path must match exactly.
	if err := r.mgr.CheckInvariants(); err != nil {
		return err
	}
	final := make([]byte, objSize)
	if err := r.mgr.HostRead(ptr, final); err != nil {
		return err
	}
	if err := check("final HostRead", 0, final); err != nil {
		return err
	}
	return r.mgr.Free(ptr)
}

// TestCoherenceModelMultiObject runs the oracle over several objects to
// cross-check invalidation isolation: an operation on one object must
// never disturb another.
func TestCoherenceModelMultiObject(t *testing.T) {
	cfg := defaultCfg(RollingUpdate)
	cfg.BlockSize = 8 << 10
	cfg.FixedRolling = 2
	r := newRig(t, cfg)
	rng := rand.New(rand.NewSource(99))
	r.dev.Register(&accel.Kernel{
		Name: "model.xor",
		Run: func(dev *mem.Space, args []uint64) {
			p, off, n := mem.Addr(args[0]), int64(args[1]), int64(args[2])
			buf := dev.Bytes(p+mem.Addr(off), n)
			for i := range buf {
				buf[i] ^= byte(args[3])
			}
		},
	})
	const objSize = 32 << 10
	const nObj = 4
	ptrs := make([]mem.Addr, nObj)
	refs := make([][]byte, nObj)
	for i := range ptrs {
		p, err := r.mgr.Alloc(objSize)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
		refs[i] = make([]byte, objSize)
		if err := r.mgr.BulkSet(p, 0, objSize); err != nil {
			t.Fatal(err)
		}
	}
	for op := 0; op < 200; op++ {
		i := rng.Intn(nObj)
		off := rng.Int63n(objSize - 16)
		switch rng.Intn(3) {
		case 0:
			data := make([]byte, 16)
			rng.Read(data)
			if err := r.mgr.HostWrite(ptrs[i]+mem.Addr(off), data); err != nil {
				t.Fatal(err)
			}
			copy(refs[i][off:], data)
		case 1:
			got := make([]byte, 16)
			if err := r.mgr.HostRead(ptrs[i]+mem.Addr(off), got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, refs[i][off:off+16]) {
				t.Fatalf("op %d: object %d diverged at %d", op, i, off)
			}
		case 2:
			pat := byte(rng.Intn(255) + 1)
			if err := r.mgr.Invoke("model.xor", uint64(ptrs[i]), uint64(off), 16, uint64(pat)); err != nil {
				t.Fatal(err)
			}
			if err := r.mgr.Sync(); err != nil {
				t.Fatal(err)
			}
			for k := off; k < off+16; k++ {
				refs[i][k] ^= pat
			}
		}
	}
	for i, p := range ptrs {
		final := make([]byte, objSize)
		if err := r.mgr.HostRead(p, final); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(final, refs[i]) {
			t.Fatalf("object %d final state diverged", i)
		}
	}
}
