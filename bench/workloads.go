package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/gmac"
	"repro/internal/cudart"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/machine"
)

// workload is one entry of BENCHMARK.json's workload list.
type workload struct {
	name string
	run  func(r *run) error
}

// The four workloads, in reporting order. Why each exists is recorded in
// BENCHMARK.json and bench/README.md; the names are cited by later issues
// and must not change.
var allWorkloads = []workload{
	{"parboil-eval", parboilEval},
	{"fault-storm", faultStorm},
	{"alloc-churn", allocChurn},
	{"kernel-loop", kernelLoop},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is what one run of one workload reports: the child process prints
// it as one JSON line, the parent adds what only it can see (resident
// memory and CPU times from the child's rusage).
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	E2E       map[string]float64 `json:"end_to_end"`
	Layer     map[string]float64 `json:"per_layer"`
	Samples   int                `json:"access_samples"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	Self      []selfRow          `json:"self_times,omitempty"`
}

// run is the state of one workload run: the shared harness plus the
// measured region's clock and counter deltas.
type run struct {
	*harness
	setup time.Duration // child start → first measured operation
	wall  time.Duration // the measured region
	tally tally
	layer map[string]float64
}

// begin marks the end of set-up: everything before it (machine build,
// context, allocations, input generation, the warm-up) is setup_s,
// everything the workload then does inside region calls is wall_s.
func (r *run) begin(samples int) {
	r.resetSamples(samples)
	r.setup = time.Since(r.t0)
}

// region runs body as (part of) the measured region on machine m: its host
// time goes to wall_s, the counters it moved to the tally. It returns the
// simulated time body took.
func (r *run) region(m *machine.Machine, ctx *gmac.Context, body func()) sim.Time {
	before := snap(m, ctx)
	t := time.Now()
	body()
	r.wall += time.Since(t)
	after := snap(m, ctx)
	r.tally.add(before, after)
	return after.virt - before.virt
}

// runWorkload executes one run of w in this process and folds what it
// measured into a result.
func runWorkload(w workload, h *harness) *result {
	r := &run{harness: h, layer: map[string]float64{}}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := w.run(r); err != nil {
		// The failing call was already counted where it happened; a run
		// that cannot continue must still not read as clean.
		if h.failed == 0 {
			h.fail("%s: %w", w.name, err)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	res := &result{Workload: w.name, Seed: h.seed, Traced: h.tr != nil,
		Attempted: max(h.attempted, 1), Failed: h.failed, Layer: r.layer}
	if h.firstErr != nil {
		res.FirstErr = h.firstErr.Error()
	}
	p50, p99, p999, n, err := h.accessStats()
	if err != nil {
		res.Failed++
		if res.FirstErr == "" {
			res.FirstErr = err.Error()
		}
	}
	res.Samples = n
	res.E2E = map[string]float64{
		"setup_s":       r.setup.Seconds(),
		"wall_s":        r.wall.Seconds(),
		"access_p50_us": p50,
		"access_p99_us": p99,
		"virt_s":        r.tally.virt.Seconds(),
		"pcie_bytes":    float64(r.tally.pcieBytes()),
		"ok_ops_ratio":  1 - float64(res.Failed)/float64(res.Attempted),
	}
	r.tally.layerCounts(r.layer)
	r.layer["machine.builds"] = float64(h.builds)
	r.layer["bench.access_p999_us"] = p999
	r.layer["proc.gc_cycles"] = float64(ms.NumGC - ms0.NumGC)
	r.layer["proc.gc_pause_ms"] = float64(ms.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	r.layer["proc.alloc_mb"] = float64(ms.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	if h.tr != nil {
		res.Self = h.tr.selfTimes()
	}
	return res
}

// ---------------------------------------------------------------- parboil-eval

// paperFig7 holds the two Figure 7 batch-update slowdowns the paper states
// in its text; they are the only reference values the repository has.
var paperFig7 = map[string]float64{"pns": 65.18, "rpes": 18.61}

// parboilVariant is one column of the evaluation: the CUDA baseline or one
// GMAC protocol.
type parboilVariant struct {
	name  string // per-layer metric stem
	cuda  bool
	proto gmac.Protocol
}

var parboilVariants = []parboilVariant{
	{name: "cuda", cuda: true},
	{name: "batch", proto: gmac.BatchUpdate},
	{name: "lazy", proto: gmac.LazyUpdate},
	{name: "rolling", proto: gmac.RollingUpdate},
}

// parboilSuite returns the seven Parboil benchmarks at evaluation scale.
// The seed perturbs one free dimension — tpacf's point count, by at most
// 0.06 % — so that runs with different seeds are not the same computation;
// pns and rpes, which the paper-accuracy figure is computed from, keep the
// paper's configuration exactly.
func parboilSuite(h *harness) []workloads.Benchmark {
	if h.scale < 1 {
		return workloads.ParboilSmall()
	}
	suite := workloads.Parboil()
	for _, b := range suite {
		if t, ok := b.(*workloads.TPACF); ok {
			t.Points -= 64 * int64(workloads.NewRand(h.seed).Intn(4))
		}
	}
	return suite
}

// parboilEval is one pass of the paper's evaluation sweep (Figures 7, 8 and
// 10; what `gmacbench all` spends most of its time in): 7 benchmarks × 4
// variants, a fresh testbed per variant run, checksums cross-verified. The
// machine builds are inside the measured region because the user pays for
// them 28 times.
//
// The access percentiles are those of the rolling-update runs (6199 host
// accesses, 6144 of them tpacf's 4 KiB initialisation writes — the Figure
// 12 pattern). Each protocol's accesses have a steady p99 of their own
// (batch and lazy 19 µs, rolling 41 µs); pooled, the p99 falls on the seam
// between them and swings between 6 and 21 µs from run to run.
func parboilEval(r *run) error {
	suite := parboilSuite(r.harness)
	// No warm-up here, unlike the other workloads: even a 64 MiB machine
	// built first changes the garbage collector's pacing enough to double
	// the time the 28 builds spend re-zeroing recycled device memories. The
	// sweep is measured the way a gmacbench user runs it, from a cold start.
	r.begin(1 << 13)
	start := time.Now()
	byVariant := map[string]float64{}
	slowdown := map[string]map[string]float64{}
	n := 0
	for _, b := range suite {
		var want float64
		var cudaVirt sim.Time
		benchStart := time.Now()
		slowdown[b.Name()] = map[string]float64{}
		for _, v := range parboilVariants {
			n++
			r.tr.setRun(n)
			// (At unit-test scale one protocol's runs make too few accesses
			// for a p99, so every GMAC run is sampled.)
			r.unsampled = v.proto != gmac.RollingUpdate && r.scale >= 1
			t := time.Now()
			id := r.tr.begin("workloads." + b.Name() + "/" + v.name)
			sum, virt, err := r.parboilRun(b, v)
			r.tr.end(id)
			byVariant[v.name] += time.Since(t).Seconds()
			r.op(b.Name()+"/"+v.name, err)
			if err != nil {
				return err
			}
			if v.cuda {
				want, cudaVirt = sum, virt
			} else {
				r.check(sum == want, "%s/%s checksum %v diverges from cuda %v", b.Name(), v.name, sum, want)
				slowdown[b.Name()][v.name] = float64(virt) / float64(cudaVirt)
			}
		}
		r.layer["workloads."+b.Name()+"_s"] = time.Since(benchStart).Seconds()
	}
	r.wall = time.Since(start) // the whole sweep: the regions plus the machine builds between them
	for v, s := range byVariant {
		r.layer["workloads."+v+"_s"] = s
	}

	var errPct, parity float64
	for name, paper := range paperFig7 {
		got := slowdown[name]["batch"]
		r.layer["figures.fig7_"+name+"_batch"] = got
		errPct = math.Max(errPct, 100*math.Abs(got-paper)/paper)
	}
	for _, s := range slowdown {
		parity = math.Max(parity, math.Max(s["lazy"], s["rolling"]))
	}
	r.layer["figures.paper_err_pct"] = errPct
	r.layer["figures.fig7_parity_max"] = parity
	return nil
}

// parboilRun executes one variant of b on a fresh testbed and returns its
// checksum and simulated time. It is the body of workloads.RunCUDA/RunGMAC
// with the benchmark's measuring session in place of the bare context.
func (r *run) parboilRun(b workloads.Benchmark, v parboilVariant) (float64, sim.Time, error) {
	m := r.testbed()
	b.Register(m.Device())
	if err := b.Prepare(m); err != nil {
		return 0, 0, fmt.Errorf("prepare: %w", err)
	}
	var sum float64
	var err error
	if v.cuda {
		rt := cudart.New(m.Device(), m.Clock, m.Breakdown)
		virt := r.region(m, nil, func() { sum, err = b.RunCUDA(m, rt) })
		if err == nil {
			live := m.Device().LiveAllocs()
			r.check(live == 0, "%s/cuda left %d device allocations", b.Name(), live)
		}
		return sum, virt, err
	}
	cfg := gmac.Config{Protocol: v.proto}
	if r.scale < 1 {
		cfg.BlockSize = 16 << 10 // what figures.RunEvaluation(true) uses at unit-test scale
	}
	s, err := r.session(m, cfg)
	if err != nil {
		return 0, 0, err
	}
	virt := r.region(m, s.ctx, func() { sum, err = b.RunGMAC(s) })
	if err == nil {
		s.finish()
	}
	return sum, virt, err
}

// ---------------------------------------------------------------- fault-storm

const stormBlock = 4096

// bumpKernel increments byte 0 of every block of its object. A host read
// that is served from a stale copy therefore returns the wrong byte, which
// the flat model catches.
func bumpKernel() *gmac.Kernel {
	return &gmac.Kernel{
		Name: "bump",
		// args: ptr, blocks
		Run: func(dev *gmac.DeviceMemory, args []uint64) {
			b := dev.Bytes(gmac.Ptr(args[0]), int64(args[1])*stormBlock)
			for i := 0; i < len(b); i += stormBlock {
				b[i]++
			}
		},
		Cost: func(args []uint64) (float64, int64) {
			return float64(args[1]), int64(args[1]) * stormBlock
		},
	}
}

// faultStorm keeps the fault path busy and nothing else: one rolling-update
// object of 4 KiB blocks; every pass invalidates it with a kernel, reads
// every block in address order (span batching climbs to 16-block fetches),
// invalidates again, reads every block in a seeded random order (one fault
// and one 4 KiB DMA per block), then writes every block (a write fault and
// a rolling eviction per block). Reads and writes are separate phases so
// that a gain for one that costs the other shows.
//
// The object is 16 MiB, not larger, because of what sizing found on the
// shared 2-core sandbox: with a 64 MiB object (128 MiB touched per pass,
// host copy plus device memory) wall_s, access_p50_us and access_p99_us
// follow the neighbours' memory traffic in waves of minutes, by 33 %, 43 %
// and 66 % peak to peak, while with 16 MiB the same 4.9 M accesses in the
// same minutes repeat within 2 %. The path measured is the same; only what
// it waits on differs.
func faultStorm(r *run) error {
	blocks := r.size(4096, 128)
	passes := r.size(400, 3)
	m := r.testbed()
	s, err := r.session(m, gmac.Config{Protocol: gmac.RollingUpdate, BlockSize: stormBlock})
	if err != nil {
		return err
	}
	s.Register(bumpKernel)
	p, err := s.Alloc(int64(blocks) * stormBlock)
	if err != nil {
		return err
	}
	// One random read order per pass (and one for the warm-up), generated
	// now so that the measured region only reads them.
	rng := workloads.NewRand(r.seed)
	perms := make([][]int32, passes+1)
	for n := range perms {
		perm := make([]int32, blocks)
		for i := range perm {
			perm[i] = int32(i)
		}
		for i := blocks - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		perms[n] = perm
	}
	// The flat host-side model: byte 0 of every block, as a program with
	// one coherent memory would see it.
	model := make([]byte, blocks)
	buf := make([]byte, 1)
	var seqFaults, seqPrefetched int64

	bump := func() {
		if s.Call("bump", []uint64{uint64(p), uint64(blocks)}, gmac.Writes(p)) == nil {
			for i := range model {
				model[i]++
			}
		}
	}
	read := func(b int) {
		if s.HostRead(p+gmac.Ptr(b*stormBlock), buf) == nil && buf[0] != model[b] {
			r.fail("fault-storm: block %d reads %d, the model holds %d", b, buf[0], model[b])
		}
	}
	pass := func(n int) {
		r.tr.setRun(n)
		bump()
		id := r.tr.begin("phase.seq_read")
		st := s.ctx.Stats()
		for b := 0; b < blocks; b++ {
			read(b)
		}
		d := s.ctx.Stats().Sub(st)
		seqFaults += d.Faults
		seqPrefetched += d.PrefetchedBlocks
		r.tr.end(id)

		bump()
		id = r.tr.begin("phase.rand_read")
		for _, b := range perms[n] {
			read(int(b))
		}
		r.tr.end(id)

		id = r.tr.begin("phase.write_evict")
		for b := 0; b < blocks; b++ {
			buf[0] = byte(n + 13*b)
			if s.HostWrite(p+gmac.Ptr(b*stormBlock), buf) == nil {
				model[b] = buf[0]
			}
		}
		r.tr.end(id)
	}

	pass(0) // warm-up
	seqFaults, seqPrefetched = 0, 0
	if r.corruptModel {
		model[blocks/2] ^= 0xff
	}
	r.begin(3 * blocks * passes)
	r.region(m, s.ctx, func() {
		for n := 1; n <= passes; n++ {
			pass(n)
		}
	})
	r.layer["core.prefetch_hit_ratio"] = ratio(int64(blocks*passes)-seqFaults, seqPrefetched)
	r.phases("phase.seq_read", "phase.rand_read", "phase.write_evict")

	r.op("gmac.Free", s.Session.Free(p))
	s.finish()
	return nil
}

// phases copies the traced run's phase totals into the per-layer metrics
// (phase.seq_read → phase.seq_read_s). Untraced runs have no spans and
// report nothing.
func (r *run) phases(names ...string) {
	if r.tr == nil {
		return
	}
	for _, n := range names {
		r.layer[n+"_s"] = r.tr.total(n)
	}
}

// ---------------------------------------------------------------- alloc-churn

// churnObject is the model of one live object: the first eight bytes of
// each 4 KiB block, and whether the model knows them.
type churnObject struct {
	ptr   gmac.Ptr
	vals  []uint64
	state []uint8
}

// Block model states. A fresh object reads as zeros on the host; once a
// kernel call has named it in its write set, blocks the host never wrote
// hold whatever the accelerator heap held there before, which no model can
// predict — those reads are still issued and timed, but not compared.
const (
	blockFresh = iota
	blockWritten
	blockUnknown
)

var churnSizes = []int64{16 << 10, 64 << 10, 256 << 10}

// allocChurn drives the registry's write side: thousands of live objects,
// every step frees one and allocates a replacement, then touches random
// blocks of random objects, with an occasional kernel call whose boundary
// walks them all. fault-storm reads the same registry with one object, so a
// lookup structure that trades Alloc/Free cost for lookup cost moves the
// two workloads in opposite directions.
func allocChurn(r *run) error {
	live := r.size(2048, 32)
	steps := r.size(40000, 200)
	const accesses = 8
	m := r.testbed()
	s, err := r.session(m, gmac.Config{Protocol: gmac.RollingUpdate, BlockSize: stormBlock})
	if err != nil {
		return err
	}
	s.Register(func() *gmac.Kernel {
		return &gmac.Kernel{Name: "nop", Run: func(*gmac.DeviceMemory, []uint64) {}}
	})
	rng := workloads.NewRand(r.seed)
	alloc := func() (churnObject, error) {
		size := churnSizes[rng.Intn(len(churnSizes))]
		p, err := s.Alloc(size)
		n := size / stormBlock
		return churnObject{ptr: p, vals: make([]uint64, n), state: make([]uint8, n)}, err
	}
	objs := make([]churnObject, live)
	for i := range objs {
		if objs[i], err = alloc(); err != nil {
			return err
		}
	}
	buf := make([]byte, 8)
	var stepErr error
	step := func(n int) {
		k := rng.Intn(live)
		if err := s.Free(objs[k].ptr); err != nil {
			stepErr = err
			return
		}
		if objs[k], err = alloc(); err != nil {
			stepErr = err
			return
		}
		for a := 0; a < accesses; a++ {
			o := &objs[rng.Intn(live)]
			b := rng.Intn(len(o.vals))
			addr := o.ptr + gmac.Ptr(b*stormBlock)
			if a%2 == 0 {
				if s.HostRead(addr, buf) != nil || o.state[b] == blockUnknown {
					continue
				}
				if got := binary.LittleEndian.Uint64(buf); got != o.vals[b] {
					r.fail("alloc-churn: %#x reads %#x, the model holds %#x", uint64(addr), got, o.vals[b])
				}
			} else {
				v := rng.Uint64()
				binary.LittleEndian.PutUint64(buf, v)
				if s.HostWrite(addr, buf) == nil {
					o.vals[b], o.state[b] = v, blockWritten
				}
			}
		}
		if n%256 == 0 {
			r.tr.setRun(n / 256)
			o := &objs[rng.Intn(live)]
			if s.Call("nop", nil, gmac.Writes(o.ptr)) == nil {
				for b, st := range o.state {
					if st == blockFresh {
						o.state[b] = blockUnknown
					}
				}
			}
		}
	}

	step(0) // warm-up
	r.begin(accesses * steps)
	r.region(m, s.ctx, func() {
		for n := 1; n <= steps && stepErr == nil; n++ {
			step(n)
		}
	})
	if stepErr != nil {
		return stepErr
	}
	if r.tr != nil {
		r.layer["phase.alloc_s"] = r.tr.total("gmac.Alloc")
		r.layer["phase.free_s"] = r.tr.total("gmac.Free")
		r.layer["phase.call_s"] = r.tr.total("gmac.Call")
		var ns int64
		for _, d := range r.access {
			ns += int64(d)
		}
		r.layer["phase.access_s"] = float64(ns) / 1e9
	}

	for i := range objs {
		r.op("gmac.Free", s.Session.Free(objs[i].ptr))
	}
	s.finish()
	return nil
}

// ---------------------------------------------------------------- kernel-loop

const (
	loopPage       = 4096
	loopParamBlock = gmac.DefaultBlockSize
)

// stepKernel is the iteration kernel of kernel-loop. It sums word 0 of
// every 256 KiB of params into delta, adds delta to word 0 of every 4 KiB
// of state, and writes word 0 of page p of out from a rotating page of
// state. Every result the host later reads depends on every host write
// having reached the accelerator and on all of state having survived the
// call boundaries.
func stepKernel() *gmac.Kernel {
	return &gmac.Kernel{
		Name: "step",
		// args: state, params, out, stateBytes, paramsBytes, outBytes, iteration
		Run: func(dev *gmac.DeviceMemory, args []uint64) {
			state := dev.Bytes(gmac.Ptr(args[0]), int64(args[3]))
			params := dev.Bytes(gmac.Ptr(args[1]), int64(args[4]))
			out := dev.Bytes(gmac.Ptr(args[2]), int64(args[5]))
			var delta uint32
			for i := 0; i < len(params); i += int(loopParamBlock) {
				delta += binary.LittleEndian.Uint32(params[i:])
			}
			for i := 0; i < len(state); i += loopPage {
				binary.LittleEndian.PutUint32(state[i:], binary.LittleEndian.Uint32(state[i:])+delta)
			}
			pages := len(state) / loopPage
			for p := 0; p*loopPage < len(out); p++ {
				src := (p*37 + int(args[6])) % pages
				binary.LittleEndian.PutUint32(out[p*loopPage:], binary.LittleEndian.Uint32(state[src*loopPage:])+uint32(p))
			}
		},
		Cost: func(args []uint64) (float64, int64) {
			return float64(args[3]) / loopPage, int64(args[3])
		},
	}
}

// loopRig is one protocol's machine and objects.
type loopRig struct {
	name               string
	m                  *machine.Machine
	s                  *session
	state, params, out gmac.Ptr
	// The flat model: word 0 of every 256 KiB of params as the host last
	// wrote it, and the value every page of state holds.
	model []uint32
	acc   uint32
}

// kernelLoop is the pns/rpes pattern behind Figure 7's 65×: hundreds of
// call/return boundaries with the state living on the accelerator, under
// each of the three protocols. Batch-update moves all 37 MiB each way per
// call, so the work is MiB-sized mem.Space copies and accel DMAs — the same
// two layers fault-storm drives with 4 KiB transfers.
func kernelLoop(r *run) error {
	iters := r.size(800, 20)
	stateBytes, paramsBytes, outBytes := int64(32<<20), int64(4<<20), int64(1<<20)
	if r.scale < 1 {
		stateBytes = 4 << 20
	}
	const writes, reads = 4, 16
	paramBlocks := int(paramsBytes / loopParamBlock)
	outPages := int(outBytes / loopPage)

	var rigs []*loopRig
	for _, v := range parboilVariants[1:] {
		rig := &loopRig{name: v.name, m: r.testbed(), model: make([]uint32, paramBlocks)}
		var err error
		if rig.s, err = r.session(rig.m, gmac.Config{Protocol: v.proto}); err != nil {
			return err
		}
		rig.s.Register(stepKernel)
		for _, a := range []struct {
			p    *gmac.Ptr
			size int64
		}{{&rig.state, stateBytes}, {&rig.params, paramsBytes}, {&rig.out, outBytes}} {
			if *a.p, err = rig.s.Alloc(a.size); err != nil {
				return err
			}
		}
		rigs = append(rigs, rig)
	}

	// loop runs n iterations on rig and returns the running sum of what the
	// host read, next to the sum a single coherent memory would have given.
	buf := make([]byte, 4)
	loop := func(rig *loopRig, rng *workloads.Rand, first, n int) (got, want uint64) {
		for i := first; i < first+n; i++ {
			for w := 0; w < writes; w++ {
				k, v := rng.Intn(paramBlocks), uint32(rng.Uint64())
				binary.LittleEndian.PutUint32(buf, v)
				if rig.s.HostWrite(rig.params+gmac.Ptr(int64(k)*loopParamBlock), buf) == nil {
					rig.model[k] = v
				}
			}
			err := rig.s.Call("step", []uint64{uint64(rig.state), uint64(rig.params), uint64(rig.out),
				uint64(stateBytes), uint64(paramsBytes), uint64(outBytes), uint64(i)})
			if err == nil {
				for _, v := range rig.model {
					rig.acc += v
				}
			}
			for k := 0; k < reads; k++ {
				p := rng.Intn(outPages)
				if rig.s.HostRead(rig.out+gmac.Ptr(p*loopPage), buf) == nil {
					v := binary.LittleEndian.Uint32(buf)
					if v != rig.acc+uint32(p) {
						r.fail("kernel-loop/%s: out page %d reads %d at iteration %d, the model holds %d",
							rig.name, p, v, i, rig.acc+uint32(p))
					}
					got += uint64(v)
				}
				want += uint64(rig.acc + uint32(p))
			}
		}
		return got, want
	}

	rngs := make([]*workloads.Rand, len(rigs))
	for i, rig := range rigs {
		rngs[i] = workloads.NewRand(r.seed)
		loop(rig, rngs[i], 0, 1) // warm-up
	}
	r.begin(len(rigs) * iters * (writes + reads))
	var sums []uint64
	for i, rig := range rigs {
		r.tr.setRun(i + 1)
		id := r.tr.begin("phase." + rig.name)
		var got, want uint64
		r.region(rig.m, rig.s.ctx, func() { got, want = loop(rig, rngs[i], 1, iters) })
		r.tr.end(id)
		r.check(got == want, "kernel-loop/%s: host read sum %d, reference %d", rig.name, got, want)
		sums = append(sums, got)
	}
	r.check(sums[0] == sums[1] && sums[1] == sums[2], "kernel-loop: sums differ across protocols: %v", sums)
	r.phases("phase.batch", "phase.lazy", "phase.rolling")

	for _, rig := range rigs {
		for _, p := range []gmac.Ptr{rig.state, rig.params, rig.out} {
			r.op("gmac.Free", rig.s.Session.Free(p))
		}
		rig.s.finish()
	}
	return nil
}
