package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/gmac"
	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/hostmmu"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/oplog"
	"repro/internal/racecheck"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/machine"
)

// The ladder times one public call of one layer in a loop, outside-in from
// machine construction down to a counter increment. Each rung is the median
// of ladderBatches batches; a batch stops at ladderBatchIters iterations or
// its share of the time budget, whichever comes first. The rungs along the
// read-fault path are chosen so that their sum can be held against the
// whole fault (core.fault_read_ns): what is left over is the protocol
// transition, the one rung with no public entry point.
const (
	ladderBatches    = 5
	ladderBatchIters = 40000
	ladderPage       = 4096
	ladderBlocks     = 4096 // 16 MiB of 4 KiB blocks: the fault-storm object
	ladderLive       = 2048 // live objects of the churn rungs: alloc-churn's population
	corpusDir        = "testdata/corpus"
)

// sink keeps the result of every measured call reachable, so the compiler
// cannot remove the call.
var sink any

type ladder struct {
	out      map[string]float64
	perBatch time.Duration
}

// rung records the median cost of one iteration of op under name, in
// nanoseconds divided by div: 1 for ns, 1e3 for µs, or the number of units
// of work in one iteration (pages mapped, ops decoded). op runs n
// iterations and returns the time they took, net of any off-the-clock
// resets it needed between them.
func (l *ladder) rung(name string, div float64, op func(n int) time.Duration) {
	// Size the batches from a short probe; an iteration that alone fills a
	// batch (a two-lane round, a MiB copy) is not probed further.
	per := op(1)
	if per < l.perBatch/8 {
		per = op(8) / 8
	}
	n := ladderBatchIters
	if per > 0 {
		n = int(min(int64(l.perBatch/per), ladderBatchIters))
	}
	n = max(n, 1)
	costs := make([]float64, ladderBatches)
	for i := range costs {
		costs[i] = float64(op(n)) / float64(n)
	}
	l.out[name] = median(costs) / div
}

// loop times n back-to-back calls of body.
func loop(body func(i int)) func(n int) time.Duration {
	next := 0
	return func(n int) time.Duration {
		t := time.Now()
		for i := 0; i < n; i++ {
			body(next + i)
		}
		next += n
		return time.Since(t)
	}
}

// pooled times calls of body over a pool of `pool` one-shot slots (blocks
// that can fault once, pages that can miss once): when the pool is used up
// the clock stops, reset refills it, and the clock resumes.
func pooled(pool int, body func(slot int), reset func()) func(n int) time.Duration {
	cursor := 0
	return func(n int) time.Duration {
		var total time.Duration
		for done := 0; done < n; {
			k := min(n-done, pool-cursor)
			t := time.Now()
			for i := 0; i < k; i++ {
				body(cursor + i)
			}
			total += time.Since(t)
			cursor += k
			done += k
			if cursor == pool {
				reset()
				cursor = 0
			}
		}
		return total
	}
}

// each sums individually timed sections: body does its untimed preparation,
// times the one call of interest, and returns that time. The timer's own
// cost (bench.timer_ns) is part of every sample.
func each(body func(i int) time.Duration) func(n int) time.Duration {
	next := 0
	return func(n int) time.Duration {
		var total time.Duration
		for i := 0; i < n; i++ {
			total += body(next + i)
		}
		next += n
		return total
	}
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench ladder: %v", err))
	}
}

// ladderMachine builds the paper's testbed with a smaller device memory:
// the rungs need a few dozen MiB, and a 1 GiB device per rig would spend the
// ladder's budget zeroing memory.
func ladderMachine(devMem int64) *machine.Machine {
	cfg := machine.PaperTestbedConfig()
	cfg.Accelerators[0].MemSize = devMem
	m, err := machine.New(cfg)
	must(err)
	m.Device().Register(&accel.Kernel{Name: "nop", Run: func(*mem.Space, []uint64) {}})
	return m
}

// ladderRig is a machine with a GMAC context on it.
func ladderRig(devMem int64, cfg gmac.Config) (*machine.Machine, *gmac.Context, *core.Manager) {
	m := ladderMachine(devMem)
	ctx, err := gmac.NewContext(m, cfg)
	must(err)
	return m, ctx, ctx.Manager()
}

func runLadder(budget time.Duration) map[string]float64 {
	l := &ladder{out: map[string]float64{}}
	// About sixty loop rungs share what the construction rungs leave.
	l.perBatch = budget / (60 * ladderBatches)

	l.construction(budget)
	l.memRungs()
	l.mmuRungs()
	l.simRungs()
	l.accelRungs()
	l.instrumentationRungs()
	l.coreRungs()
	l.gmacRungs()
	l.replayRung()

	l.rung("bench.timer_ns", 1, loop(func(int) { sink = time.Since(time.Now()) }))

	// Reconciliation: a faulting read is a read that hits, with the page
	// check that hit replaced by one that misses, plus what the handler does
	// through public calls of other layers — each rung times its real
	// multiplicity on that path. hostmmu.check_miss_ns already contains the
	// handler's one Mprotect and the delivery's clock advance and breakdown
	// charge, and core.hit_read_ns the access's own lookup and op record.
	// What the rungs leave is the protocol transition and its glue, the one
	// part of the path with no public entry point.
	o := l.out
	rungs := o["core.hit_read_ns"] - o["hostmmu.check_hit_ns"] + o["hostmmu.check_miss_ns"] +
		o["core.lookup_1obj_ns"] + o["accel.d2h4k_ns"] + 2*o["oplog.record_ns"] +
		2*o["metrics.hist_observe_ns"] + 4*o["metrics.counter_inc_ns"] +
		2*o["sim.advance_ns"] + 3*o["sim.breakdown_add_ns"]
	o["core.transition_ns"] = o["core.fault_read_ns"] - rungs
	o["core.ladder_cover_pct"] = 100 * rungs / o["core.fault_read_ns"]
	o["gmac.hit_overhead_ns"] = o["gmac.hit_read_ns"] - o["core.hit_read_ns"]
	delete(o, "gmac.hit_read_ns")
	return o
}

// construction measures building the testbed: the first build of a process
// gets fresh zero pages from the OS, later ones reuse device memories the
// collector freed and must zero them again — the path the evaluation sweep
// spends most of its time on.
func (l *ladder) construction(budget time.Duration) {
	// A recycled build takes a tenth of a second or more: repeat once per
	// second of budget, between 2 and 9 times (the issue's "10th build").
	repeats := max(2, min(9, int(budget/time.Second)))
	build := func() float64 {
		t := time.Now()
		m, err := machine.New(machine.PaperTestbedConfig())
		must(err)
		d := time.Since(t)
		sink = m
		return float64(d) / 1e6
	}
	l.out["machine.new_fresh_ms"] = build()
	var recycled []float64
	for i := 0; i < repeats; i++ {
		sink = nil
		runtime.GC()
		recycled = append(recycled, build())
	}
	l.out["machine.new_recycled_ms"] = median(recycled[len(recycled)/2:]) // the later half: the heap has settled

	var spaces []float64
	for i := 0; i < min(3, repeats); i++ {
		sink = nil
		runtime.GC()
		t := time.Now()
		sink = mem.NewSpace("ladder", 0x2_0000_0000, 1<<30)
		spaces = append(spaces, float64(time.Since(t))/1e6)
	}
	l.out["mem.space_new_recycled_ms"] = median(spaces)
	sink = nil
	runtime.GC()
}

func (l *ladder) memRungs() {
	const base, size = mem.Addr(0x4_0000_0000), int64(ladderBlocks * ladderPage)
	sp := mem.NewSpace("ladder", base, size)
	buf4k, buf1m := make([]byte, 4<<10), make([]byte, 1<<20)
	at := func(i int, n int64) mem.Addr { return base + mem.Addr(int64(i)*n%size) }
	l.rung("mem.space_read4k_ns", 1, loop(func(i int) { sp.Read(at(i, 4<<10), buf4k) }))
	l.rung("mem.space_write4k_ns", 1, loop(func(i int) { sp.Write(at(i, 4<<10), buf4k) }))
	l.rung("mem.space_read1m_us", 1e3, loop(func(i int) { sp.Read(at(i, 1<<20), buf1m) }))
	l.rung("mem.space_write1m_us", 1e3, loop(func(i int) { sp.Write(at(i, 1<<20), buf1m) }))

	// Map and allocate next to ladderLive existing entries, as an Alloc in
	// alloc-churn does.
	va := mem.NewVASpace(0x7f00_0000_0000, 0x7f80_0000_0000)
	for i := 0; i < ladderLive; i++ {
		_, err := va.MapFixed(base+mem.Addr(i*2*ladderPage), ladderPage)
		must(err)
	}
	hole := base + mem.Addr(ladderLive*ladderPage) + ladderPage // between two live mappings
	l.rung("mem.vaspace_map_ns", 1, loop(func(int) {
		mp, err := va.MapFixed(hole, ladderPage)
		must(err)
		sink = mp
		must(va.Unmap(hole))
	}))
	al := mem.NewAllocator(base, 1<<30, 4096)
	for i := 0; i < ladderLive; i++ {
		_, err := al.Alloc(64 << 10)
		must(err)
	}
	l.rung("mem.allocator_alloc_ns", 1, loop(func(int) {
		a, err := al.Alloc(64 << 10)
		must(err)
		must(al.Free(a))
	}))
}

func (l *ladder) mmuRungs() {
	clock, bd := sim.NewClock(), sim.NewBreakdown()
	mmu := hostmmu.New(hostmmu.Config{PageSize: ladderPage, SignalCost: 1500 * sim.Nanosecond}, clock, bd)
	const hit, miss, scratch = mem.Addr(0x10_0000_0000), mem.Addr(0x20_0000_0000), mem.Addr(0x30_0000_0000)
	const span = int64(ladderBlocks) * ladderPage
	page := func(base mem.Addr, i int) mem.Addr { return base + mem.Addr(i%ladderBlocks)*ladderPage }

	mmu.Map(hit, span, hostmmu.ProtRead)
	l.rung("hostmmu.check_hit_ns", 1, loop(func(i int) { must(mmu.CheckRead(page(hit, i), 1)) }))

	// A miss: the page forbids the access, the fault is delivered, the
	// handler upgrades the page (its only work), the access is retried.
	mmu.Map(miss, span, hostmmu.ProtNone)
	mmu.SetHandler(func(f hostmmu.Fault) error { return mmu.Mprotect(f.Addr, ladderPage, hostmmu.ProtRead) })
	l.rung("hostmmu.check_miss_ns", 1, pooled(ladderBlocks,
		func(i int) { must(mmu.CheckRead(page(miss, i), 1)) },
		func() { must(mmu.Mprotect(miss, span, hostmmu.ProtNone)) }))

	prots := [2]hostmmu.Prot{hostmmu.ProtReadWrite, hostmmu.ProtRead}
	l.rung("hostmmu.mprotect_ns", 1, loop(func(i int) { must(mmu.Mprotect(page(hit, i), ladderPage, prots[i&1])) }))

	const pages = 16
	l.rung("hostmmu.map_page_ns", pages, loop(func(int) {
		mmu.Map(scratch, pages*ladderPage, hostmmu.ProtRead)
		mmu.Unmap(scratch, pages*ladderPage)
	}))
}

func (l *ladder) simRungs() {
	clock, bd := sim.NewClock(), sim.NewBreakdown()
	res := sim.NewResource("ladder", clock)
	link := interconnect.PCIe2x16D2H()
	l.rung("sim.advance_ns", 1, loop(func(int) { clock.Advance(1) }))
	l.rung("sim.breakdown_add_ns", 1, loop(func(int) { bd.Add(sim.CatCopy, 1) }))
	l.rung("sim.submit_ns", 1, loop(func(int) { sink = res.SubmitNow(1) }))
	l.rung("interconnect.transfer_time_ns", 1, loop(func(int) { sink = link.TransferTime(ladderPage) }))
}

func (l *ladder) accelRungs() {
	m := ladderMachine(128 << 20)
	dev := m.Device()
	const size = int64(ladderBlocks * ladderPage)
	base, err := dev.Malloc(size)
	must(err)
	// The host side of a 4 KiB transfer rotates through a buffer as large
	// as the device side, as the blocks of a faulting object do; one hot
	// 4 KiB buffer would flatter the copy.
	host, buf1m := make([]byte, size), make([]byte, 1<<20)
	at := func(i int, n int64) mem.Addr { return base + mem.Addr(int64(i)*n%size) }
	host4k := func(i int) []byte { off := int64(i) * (4 << 10) % size; return host[off : off+4<<10] }
	l.rung("accel.h2d4k_ns", 1, loop(func(i int) { sink = dev.MemcpyH2D(at(i, 4<<10), host4k(i)) }))
	l.rung("accel.d2h4k_ns", 1, loop(func(i int) { sink = dev.MemcpyD2H(host4k(i), at(i, 4<<10)) }))
	l.rung("accel.h2d1m_us", 1e3, loop(func(i int) { sink = dev.MemcpyH2D(at(i, 1<<20), buf1m) }))
	l.rung("accel.d2h1m_us", 1e3, loop(func(i int) { sink = dev.MemcpyD2H(buf1m, at(i, 1<<20)) }))
	l.rung("accel.launch_ns", 1, loop(func(int) {
		c, err := dev.Launch("nop")
		must(err)
		sink = c
	}))
	l.rung("accel.malloc_ns", 1, loop(func(int) {
		a, err := dev.Malloc(64 << 10)
		must(err)
		must(dev.Free(a))
	}))

	rt := cudart.New(dev, m.Clock, m.Breakdown)
	l.rung("cudart.h2d1m_us", 1e3, loop(func(i int) { rt.MemcpyH2D(at(i, 1<<20), buf1m) }))
}

// corpus loads the recorded op streams, largest first.
func corpus() []*oplog.Log {
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.oplog"))
	must(err)
	sort.Strings(files)
	var logs []*oplog.Log
	for _, f := range files {
		data, err := os.ReadFile(f)
		must(err)
		lg, err := oplog.Decode(data)
		must(err)
		logs = append(logs, lg)
	}
	sort.SliceStable(logs, func(i, j int) bool { return len(logs[i].Ops) > len(logs[j].Ops) })
	return logs
}

func (l *ladder) instrumentationRungs() {
	ring := oplog.NewRing(1 << 14)
	op := oplog.Op{Kind: oplog.OpFault, Obj: 1, Addr: 0x2_0000_0000, Size: ladderPage}
	l.rung("oplog.record_ns", 1, loop(func(i int) { op.At = sim.Time(i); ring.Record(op) }))

	reg := metrics.NewRegistry()
	ctr, hist := reg.Counter("ladder_total"), reg.Histogram("ladder_ns", metrics.LatencyBuckets)
	l.rung("metrics.counter_inc_ns", 1, loop(func(int) { ctr.Inc() }))
	l.rung("metrics.hist_observe_ns", 1, loop(func(i int) { hist.Observe(int64(i&0xffff) * 16) }))

	tr := trace.NewTracer(1 << 12)
	l.rung("trace.span_ns", 1, loop(func(i int) { tr.End(tr.Begin("fault", "read", sim.Time(i)), sim.Time(i)) }))

	// Per-op costs over the largest recorded stream of the corpus.
	logs := corpus()
	if len(logs) == 0 {
		return
	}
	big := logs[0]
	nops := float64(len(big.Ops))
	data := big.Encode()
	l.rung("oplog.encode_op_ns", nops, loop(func(int) { sink = big.Encode() }))
	l.rung("oplog.decode_op_ns", nops, loop(func(int) {
		lg, err := oplog.Decode(data)
		must(err)
		sink = lg
	}))
	l.rung("racecheck.feed_op_ns", nops, loop(func(int) {
		d := racecheck.New(big.Header)
		for _, op := range big.Ops {
			d.Feed(op)
		}
		sink = d
	}))
}

// faultCfg is the runtime configuration of the single-block fault rungs:
// fault-storm's, with span batching off so that every iteration is exactly
// one fault and one 4 KiB transfer, and a rolling cache big enough that
// nothing is evicted unless the rung is about eviction.
func faultCfg(rolling int) gmac.Config {
	return gmac.Config{Protocol: gmac.RollingUpdate, BlockSize: ladderPage, FixedRolling: rolling, DisableFaultBatching: true}
}

func (l *ladder) coreRungs() {
	const span = int64(ladderBlocks) * ladderPage
	block := func(p mem.Addr, i int) mem.Addr { return p + mem.Addr(i%ladderBlocks)*ladderPage }
	one := make([]byte, 1)
	invoke := func(mgr *core.Manager, writes []mem.Addr) {
		must(mgr.InvokeAnnotated("nop", writes))
		must(mgr.Sync())
	}

	// Reads: a hit on a valid block, then one fault per Invalid block; a
	// kernel annotated as writing the object re-invalidates it off the clock.
	_, ctx, mgr := ladderRig(128<<20, faultCfg(ladderBlocks))
	p, err := mgr.Alloc(span)
	must(err)
	l.rung("core.hit_read_ns", 1, loop(func(i int) { must(mgr.HostRead(block(p, i), one)) }))
	l.rung("gmac.hit_read_ns", 1, loop(func(i int) { must(ctx.HostRead(block(p, i), one)) }))
	invoke(mgr, []mem.Addr{p})
	l.rung("core.fault_read_ns", 1, pooled(ladderBlocks,
		func(i int) { must(mgr.HostRead(block(p, i), one)) },
		func() { invoke(mgr, []mem.Addr{p}) }))

	// Writes: one fault per ReadOnly block; an empty write set flushes the
	// Dirty blocks back to ReadOnly off the clock.
	_, _, mgr = ladderRig(128<<20, faultCfg(ladderBlocks+1))
	p, err = mgr.Alloc(span)
	must(err)
	l.rung("core.fault_write_ns", 1, pooled(ladderBlocks,
		func(i int) { must(mgr.HostWrite(block(p, i), one)) },
		func() { invoke(mgr, []mem.Addr{}) }))

	// Eviction: a 32-block rolling cache over 1024 blocks walked round-robin,
	// so every write fault pushes one block out.
	_, _, mgr = ladderRig(128<<20, faultCfg(32))
	p, err = mgr.Alloc(1024 * ladderPage)
	must(err)
	l.rung("core.fault_evict_ns", 1, loop(func(i int) { must(mgr.HostWrite(p+mem.Addr(i%1024)*ladderPage, one)) }))

	// Lookup against 1, 256 and 4096 live objects.
	for _, n := range []int{1, 256, 4096} {
		_, _, mgr := ladderRig(128<<20, faultCfg(0))
		ptrs := make([]mem.Addr, n)
		for i := range ptrs {
			ptrs[i], err = mgr.Alloc(ladderPage)
			must(err)
		}
		l.rung(fmt.Sprintf("core.lookup_%dobj_ns", n), 1, loop(func(i int) { sink = mgr.ObjectAt(ptrs[i%n] + 128) }))
	}

	// The registry's write side, next to alloc-churn's population.
	_, _, mgr = ladderRig(256<<20, faultCfg(0))
	for i := 0; i < ladderLive; i++ {
		_, err = mgr.Alloc(64 << 10)
		must(err)
	}
	l.rung("core.alloc_us", 1e3, each(func(int) time.Duration {
		t := time.Now()
		a, err := mgr.Alloc(64 << 10)
		d := time.Since(t)
		must(err)
		must(mgr.Free(a))
		return d
	}))
	l.rung("core.free_us", 1e3, each(func(int) time.Duration {
		a, err := mgr.Alloc(64 << 10)
		must(err)
		t := time.Now()
		err = mgr.Free(a)
		d := time.Since(t)
		must(err)
		return d
	}))
	l.rung("core.lookup_after_alloc_us", 1e3, each(func(int) time.Duration {
		a, err := mgr.Alloc(64 << 10)
		must(err)
		t := time.Now()
		sink = mgr.ObjectAt(a) // the first lookup in the shard the Alloc just changed
		d := time.Since(t)
		must(mgr.Free(a))
		return d
	}))

	// One call/return boundary per protocol, with one dirty 1 MiB object.
	for _, v := range parboilVariants[1:] {
		_, _, mgr := ladderRig(128<<20, gmac.Config{Protocol: v.proto})
		p, err := mgr.Alloc(1 << 20)
		must(err)
		l.rung("core.call_"+v.name+"_us", 1e3, each(func(int) time.Duration {
			for off := int64(0); off < 1<<20; off += gmac.DefaultBlockSize {
				must(mgr.HostWrite(p+mem.Addr(off), one))
			}
			t := time.Now()
			invoke(mgr, []mem.Addr{p})
			return time.Since(t)
		}))
	}

	l.twoLanes()
}

// twoLanes is the one rung with two threads: two host goroutines, each in
// its own virtual-time lane, take write faults on their own 1 MiB object at
// once. The cost is host time per fault with both lanes running.
func (l *ladder) twoLanes() {
	const lanes, laneBlocks = 2, 256
	m, _, mgr := ladderRig(128<<20, faultCfg(lanes*laneBlocks+1))
	var ptrs [lanes]mem.Addr
	for i := range ptrs {
		var err error
		ptrs[i], err = mgr.Alloc(laneBlocks * ladderPage)
		must(err)
	}
	clock := m.Clock
	// One iteration is one round: both lanes fault on every block of their
	// object, then an empty write set flushes the Dirty blocks back to
	// ReadOnly off the clock. Shorter rounds would time goroutine start-up.
	l.rung("core.fault_2lanes_ns", lanes*laneBlocks, each(func(int) time.Duration {
		base := clock.Now()
		var wg sync.WaitGroup
		var errs [lanes]error
		t := time.Now()
		for lane := 0; lane < lanes; lane++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				clock.EnterLaneAt(base)
				defer clock.ExitLane()
				src := []byte{byte(lane)}
				for j := 0; j < laneBlocks; j++ {
					if err := mgr.HostWrite(ptrs[lane]+mem.Addr(j)*ladderPage, src); err != nil {
						errs[lane] = err
						return
					}
				}
			}(lane)
		}
		wg.Wait()
		d := time.Since(t)
		for _, err := range errs {
			must(err)
		}
		must(mgr.InvokeAnnotated("nop", []mem.Addr{}))
		must(mgr.Sync())
		return d
	}))
}

func (l *ladder) gmacRungs() {
	m := ladderMachine(128 << 20)
	l.rung("gmac.context_new_us", 1e3, loop(func(int) {
		ctx, err := gmac.NewContext(m, gmac.Config{Protocol: gmac.RollingUpdate})
		must(err)
		sink = ctx
	}))

	m, ctx, _ := ladderRig(128<<20, gmac.Config{Protocol: gmac.RollingUpdate})
	const mib = 1 << 20
	m.FS.CreateWith("ladder/mib", make([]byte, mib))
	p, err := ctx.Alloc(mib)
	must(err)
	buf := make([]byte, mib)
	l.rung("osabs.read_mb_us", 1e3, loop(func(int) {
		f, err := m.FS.Open("ladder/mib")
		must(err)
		_, err = f.Read(buf)
		must(err)
	}))
	l.rung("gmac.readfile_mb_us", 1e3, loop(func(int) {
		f, err := m.FS.Open("ladder/mib")
		must(err)
		_, err = ctx.ReadFile(f, p, mib)
		must(err)
	}))
}

// replayRung decodes and strictly replays the recorded corpus on the
// machine shape it was recorded on (128 MiB device), and checks every
// replay's counter totals against the recording's. The corpus is a few
// thousand ops and replays in milliseconds, nearly all of it machine
// construction, which is why replay speed is a rung and not a workload.
func (l *ladder) replayRung() {
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.oplog"))
	must(err)
	var ops, failed int
	t := time.Now()
	for _, f := range files {
		err := func() error {
			data, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			lg, err := gmac.DecodeOpLog(data)
			if err != nil {
				return err
			}
			cfg := machine.PaperTestbedConfig()
			cfg.Accelerators[0].MemSize = 128 << 20
			m, err := machine.New(cfg)
			if err != nil {
				return err
			}
			ctx, err := gmac.NewContext(m, gmac.ReplayConfig(lg.Header))
			if err != nil {
				return err
			}
			rep, err := ctx.Replay(lg, gmac.ReplayOptions{})
			if err != nil {
				return err
			}
			ops += rep.Input
			if rep.Skipped != 0 || rep.Errors != 0 {
				return fmt.Errorf("replay skipped %d ops, %d errored", rep.Skipped, rep.Errors)
			}
			return gmac.CompareTotals(lg.Totals, ctx.Stats().Counters())
		}()
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "bench: replay of %s: %v\n", f, err)
		}
	}
	if len(files) == 0 {
		failed++
		fmt.Fprintf(os.Stderr, "bench: no recorded corpus under %s\n", corpusDir)
	}
	l.out["core.replay_ops_per_s"] = float64(ops) / time.Since(t).Seconds()
	l.out["core.replay_failed"] = float64(failed)
}
