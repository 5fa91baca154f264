package core

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/oplog"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// chaosSchedule is one named fault schedule of the conformance matrix.
type chaosSchedule struct {
	name  string
	rules []fault.Rule
}

// recoverableSchedules covers every fault kind the retry policy can absorb.
// A run under any of them must end byte-identical to the fault-free
// reference model: retries are transparent by contract.
func recoverableSchedules() []chaosSchedule {
	return []chaosSchedule{
		{"nth-dma", []fault.Rule{
			fault.Nth(fault.OpDMAH2D, 2, fault.KindTransient),
			fault.Nth(fault.OpDMAD2H, 3, fault.KindTransient),
		}},
		{"every-kth-dma", []fault.Rule{
			fault.EveryK(fault.OpDMAH2D, 5, fault.KindTransient),
			fault.EveryK(fault.OpDMAD2H, 7, fault.KindTransient),
		}},
		{"every-kth-launch", []fault.Rule{
			fault.EveryK(fault.OpLaunch, 3, fault.KindTransient),
		}},
		{"timeout-dma", []fault.Rule{
			fault.EveryK(fault.OpDMAH2D, 6, fault.KindTimeout),
			fault.EveryK(fault.OpDMAD2H, 9, fault.KindTimeout),
		}},
		{"corrupt-dma", []fault.Rule{
			fault.EveryK(fault.OpDMAH2D, 4, fault.KindCorrupt),
			fault.EveryK(fault.OpDMAD2H, 5, fault.KindCorrupt),
		}},
		// The Nth rule makes the row inject at every seed: the three
		// probabilities alone draw nothing over some seeds' runs.
		{"prob-mixed", []fault.Rule{
			fault.Prob(fault.OpDMAH2D, 0.05, fault.KindTransient),
			fault.Prob(fault.OpDMAD2H, 0.05, fault.KindCorrupt),
			fault.Prob(fault.OpLaunch, 0.03, fault.KindTimeout),
			fault.Nth(fault.OpLaunch, 2, fault.KindTimeout),
		}},
	}
}

// chaosConfigs are the protocol configurations the matrix crosses with the
// schedules. MaxRetries is raised above the default so even the every-Kth
// schedules with small K stay inside the retry budget.
func chaosConfigs() []struct {
	name string
	cfg  Config
} {
	raise := func(c Config) Config {
		c.MaxRetries = 6
		return c
	}
	return []struct {
		name string
		cfg  Config
	}{
		{"batch", raise(defaultCfg(BatchUpdate))},
		{"lazy", raise(defaultCfg(LazyUpdate))},
		{"rolling", raise(func() Config {
			c := defaultCfg(RollingUpdate)
			c.BlockSize = 16 << 10
			c.FixedRolling = 3
			return c
		}())},
	}
}

// TestChaosCoherenceMatrix is the chaos conformance suite: the random
// reference-model schedule runs under every (protocol × fault schedule)
// pair with the device armed with a deterministic injector. Because every
// schedule is recoverable, the oracle's byte-for-byte comparison against
// the fault-free flat model must still hold, and the manager's invariants
// must hold after recovery. Each pair runs twice: armed from the start,
// and armed late, once the ops before have owed pages (the "late" rows
// check the invariants after every op).
func TestChaosCoherenceMatrix(t *testing.T) {
	const objSize = 128 << 10
	seed := testutil.Seed(t, 3)
	for _, pc := range chaosConfigs() {
		pc := pc
		for _, sched := range recoverableSchedules() {
			sched := sched
			for _, armAt := range []int{-1, 30} {
				name := pc.name + "/" + sched.name
				if armAt >= 0 {
					name += "/late"
				}
				t.Run(name, func(t *testing.T) {
					r := newRig(t, pc.cfg)
					inj := fault.NewInjector(seed, r.clock, sched.rules...)
					if armAt < 0 {
						r.dev.SetFaultInjector(inj)
					}
					if err := runModelArming(r, seed, objSize, armAt, inj); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if inj.Total() == 0 {
						t.Fatal("schedule injected nothing; the matrix is vacuous")
					}
					if r.mgr.lost.Load() {
						t.Fatalf("recoverable schedule escalated to device loss after %d injections", inj.Total())
					}
					if err := r.mgr.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					st := r.mgr.Stats()
					if st.Retries == 0 {
						t.Errorf("%d injections but no retries recorded", inj.Total())
					}
					if st.RetryGiveups != 0 || st.DegradedObjects != 0 {
						t.Errorf("recoverable schedule gave up: %+v", st)
					}
				})
			}
		}
	}
}

// TestFaultInjectionReplay verifies deterministic replay: the same model
// seed and the same injector seed+schedule must reproduce the exact same
// injection log (sequence numbers and virtual timestamps included), the
// same final virtual time, and the same counters.
func TestFaultInjectionReplay(t *testing.T) {
	seed := testutil.Seed(t, 7)
	run := func() ([]fault.Injection, sim.Time, Stats) {
		cfg := defaultCfg(RollingUpdate)
		cfg.BlockSize = 16 << 10
		cfg.MaxRetries = 6
		r := newRig(t, cfg)
		inj := fault.NewInjector(seed, r.clock,
			fault.Prob(fault.OpDMAH2D, 0.1, fault.KindTransient),
			fault.Prob(fault.OpDMAD2H, 0.08, fault.KindTimeout),
			fault.EveryK(fault.OpLaunch, 4, fault.KindTransient),
		)
		r.dev.SetFaultInjector(inj)
		if err := runModelOn(r, seed, 64<<10); err != nil {
			t.Fatal(err)
		}
		return inj.Log(), r.clock.Now(), r.mgr.Stats()
	}
	log1, end1, st1 := run()
	log2, end2, st2 := run()
	if len(log1) == 0 {
		t.Fatal("replay test injected nothing")
	}
	if !reflect.DeepEqual(log1, log2) {
		t.Errorf("injection logs diverged: %d vs %d entries", len(log1), len(log2))
	}
	if end1 != end2 {
		t.Errorf("virtual end times diverged: %v vs %v", end1, end2)
	}
	if st1 != st2 {
		t.Errorf("stats diverged:\n%+v\n%+v", st1, st2)
	}
}

// TestDeviceLostDegradesToHostResident injects a permanent device loss and
// checks the degradation contract for every protocol: the failing call
// reports an error matching fault.ErrDeviceLost, the object falls back to
// host-resident semantics (reads and writes keep working on the host
// copy), kernel calls and allocations fail fast afterwards, and the
// manager's invariants hold throughout.
func TestDeviceLostDegradesToHostResident(t *testing.T) {
	const size = 64 << 10
	for _, kind := range []ProtocolKind{BatchUpdate, LazyUpdate, RollingUpdate} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			// Enable automatic flight dumps: the induced device loss below
			// must produce the black box (asserted at the end).
			dumpDir := t.TempDir()
			t.Setenv(oplog.EnvFlightDir, dumpDir)
			r := newRig(t, defaultCfg(kind))
			r.dev.Register(&accel.Kernel{
				Name: "lost.xor",
				Run: func(dev *mem.Space, args []uint64) {
					buf := dev.Bytes(mem.Addr(args[0]), int64(args[1]))
					for i := range buf {
						buf[i] ^= byte(args[2])
					}
				},
				Cost: accel.FixedCost(1e5, 1<<16),
			})
			inj := fault.NewInjector(1, r.clock,
				fault.After(fault.OpLaunch, 3, fault.KindDeviceLost),
				fault.After(fault.OpDMAH2D, 12, fault.KindDeviceLost),
				fault.After(fault.OpDMAD2H, 12, fault.KindDeviceLost),
			)
			r.dev.SetFaultInjector(inj)

			ptr, err := r.mgr.Alloc(size)
			if err != nil {
				t.Fatal(err)
			}
			ref := make([]byte, size)
			rand.New(rand.NewSource(testutil.Seed(t, 42))).Read(ref)
			if err := r.mgr.HostWrite(ptr, ref); err != nil {
				t.Fatal(err)
			}

			// Call until the schedule kills the device, pulling each result
			// back to the host so the host copy stays fresh.
			var callErr error
			calls := 0
			for i := 0; i < 32 && callErr == nil; i++ {
				pat := byte(i + 1)
				callErr = r.mgr.InvokeHinted("lost.xor", CallHints{}, uint64(ptr), uint64(size), uint64(pat))
				if callErr == nil {
					callErr = r.mgr.Sync()
				}
				if callErr != nil {
					break
				}
				got := make([]byte, size)
				if err := r.mgr.HostRead(ptr, got); err != nil {
					t.Fatalf("call %d: read back: %v", i, err)
				}
				for k := range ref {
					ref[k] ^= pat
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("call %d diverged before any device loss", i)
				}
				calls++
			}
			if callErr == nil {
				t.Fatal("schedule never killed the device")
			}
			if !errors.Is(callErr, fault.ErrDeviceLost) {
				t.Fatalf("loss error does not match fault.ErrDeviceLost: %v", callErr)
			}
			if calls == 0 {
				t.Fatal("device died before any successful call; schedule too aggressive")
			}
			if !r.mgr.lost.Load() {
				t.Fatal("DeviceLost() is false after a device-lost error")
			}

			// Host-resident survival: the host copy (fresh as of the last
			// successful sync) stays readable and writable.
			got := make([]byte, size)
			if err := r.mgr.HostRead(ptr, got); err != nil {
				t.Fatalf("post-loss HostRead: %v", err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatal("post-loss read lost the last synced data")
			}
			if o := r.mgr.reg.objectAt(ptr); o == nil || !o.degraded.Load() {
				t.Fatal("object did not degrade after a post-loss access")
			}
			patch := []byte("still-writable")
			if err := r.mgr.HostWrite(ptr+100, patch); err != nil {
				t.Fatalf("post-loss HostWrite: %v", err)
			}
			copy(ref[100:], patch)
			if err := r.mgr.BulkRead(ptr, got); err != nil {
				t.Fatalf("post-loss BulkRead: %v", err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatal("post-loss write did not land in the host copy")
			}
			if err := r.mgr.CheckInvariants(); err != nil {
				t.Fatalf("invariants after degradation: %v", err)
			}

			// The device-facing surface fails fast.
			if err := r.mgr.InvokeHinted("lost.xor", CallHints{}, uint64(ptr), 16, 1); !errors.Is(err, fault.ErrDeviceLost) {
				t.Fatalf("post-loss Invoke: %v", err)
			}
			if _, err := r.mgr.Alloc(4096); !errors.Is(err, fault.ErrDeviceLost) {
				t.Fatalf("post-loss Alloc: %v", err)
			}

			st := r.mgr.Stats()
			if st.DeviceLostEvents != 1 {
				t.Errorf("DeviceLostEvents = %d, want 1", st.DeviceLostEvents)
			}
			if st.DegradedObjects == 0 {
				t.Error("DegradedObjects = 0 after degradation")
			}

			// The flight recorder must have dumped a black box for the
			// device loss, and the dump must load and replay (leniently —
			// a flight window may open mid-run).
			dumps, err := filepath.Glob(filepath.Join(dumpDir, "adsm-flight-*device-lost*.oplog"))
			if err != nil || len(dumps) == 0 {
				t.Fatalf("no device-lost flight dump in %s (err %v)", dumpDir, err)
			}
			data, err := os.ReadFile(dumps[0])
			if err != nil || len(data) == 0 {
				t.Fatalf("flight dump unreadable: %v (%d bytes)", err, len(data))
			}
			dump, err := oplog.Decode(data)
			if err != nil {
				t.Fatalf("flight dump decode: %v", err)
			}
			if len(dump.Ops) == 0 {
				t.Fatal("flight dump holds no ops")
			}
			if dump.Header.Flags&oplog.HdrFlight == 0 {
				t.Fatal("flight dump not marked HdrFlight")
			}
			if len(dump.Metrics) == 0 {
				t.Error("flight dump carries no metrics snapshot")
			}
			lost := 0
			for _, op := range dump.Ops {
				if op.Kind == oplog.OpDeviceLost {
					lost++
				}
			}
			if lost == 0 {
				t.Error("flight dump does not contain the device-lost op")
			}
			fresh := newRig(t, defaultCfg(kind))
			if _, err := fresh.mgr.Replay(dump, ReplayOptions{}); err != nil {
				t.Fatalf("lenient replay of flight dump: %v", err)
			}
			if err := fresh.mgr.CheckInvariants(); err != nil {
				t.Fatalf("invariants after flight replay: %v", err)
			}
		})
	}
}

// TestDeviceLostMidWriteWalk: a bulk or peer write that loses the
// device partway through its block walk must still land every requested
// byte. The blocks already sent to the device before the loss degrade to
// their old host copies, so the escalation must write the whole range, not
// just the part the walk had not reached.
func TestDeviceLostMidWriteWalk(t *testing.T) {
	const size = 4 * 64 << 10 // four default blocks
	cases := []struct {
		name  string
		rule  fault.Rule
		dirty bool // dirty block 1 first, so the walk must flush it
		write func(m *Manager, p mem.Addr, src []byte) error
	}{
		// Block 0's DMA succeeds, block 1's loses the device.
		{"BulkWrite", fault.After(fault.OpDMAH2D, 2, fault.KindDeviceLost), false, (*Manager).BulkWrite},
		// Block 0 goes by peer DMA, block 1's pre-flush loses the device.
		{"PeerWrite", fault.After(fault.OpDMAH2D, 1, fault.KindDeviceLost), true, (*Manager).PeerWrite},
	}
	for _, kind := range []ProtocolKind{BatchUpdate, LazyUpdate, RollingUpdate} {
		for _, tc := range cases {
			t.Run(kind.String()+"/"+tc.name, func(t *testing.T) {
				r := newRig(t, defaultCfg(kind))
				r.dev.Register(&accel.Kernel{Name: "nop", Run: func(*mem.Space, []uint64) {}})
				p, err := r.mgr.Alloc(size)
				must(t, err)
				must(t, r.mgr.HostWrite(p, bytes.Repeat([]byte{0x11}, size)))
				must(t, r.mgr.InvokeHinted("nop", CallHints{}, uint64(p)))
				must(t, r.mgr.Sync())
				if tc.dirty {
					must(t, r.mgr.HostWrite(p+64<<10, []byte{0x22}))
				}
				r.dev.SetFaultInjector(fault.NewInjector(1, r.clock, tc.rule))
				want := wbPattern(size, 9)
				if err := tc.write(r.mgr, p, want); err != nil {
					t.Fatalf("%s across a device loss: %v", tc.name, err)
				}
				// Only rolling-update walks several blocks on the device:
				// batch-update writes its host-authoritative copy, and a
				// lazy-update object is one block.
				if kind == RollingUpdate && !r.mgr.lost.Load() {
					t.Fatal("the schedule did not lose the device")
				}
				got := make([]byte, size)
				must(t, r.mgr.HostRead(p, got))
				if i := diffAt(got, want); i >= 0 {
					t.Fatalf("byte %d: got %#x, want %#x", i, got[i], want[i])
				}
				must(t, r.mgr.CheckInvariants())
			})
		}
	}
}
