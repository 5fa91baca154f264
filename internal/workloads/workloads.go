// Package workloads implements the evaluation workloads of Section 5: the
// seven Parboil benchmarks of Table 2 (cp, mri-fhd, mri-q, pns, rpes, sad,
// tpacf), the 3D-stencil application of Figure 9, and the vector-addition
// micro-benchmark of Figure 11.
//
// Every workload is implemented twice over the same kernels:
//
//   - a CUDA-style baseline with explicit device allocation and
//     programmer-managed cudaMemcpy transfers (the Figure 3 pattern), and
//   - a GMAC/ADSM version using the shared address space (the Figure 4
//     pattern): no explicit transfers anywhere.
//
// Both variants perform the same real computation on real data and must
// produce bit-identical checksums — the integration tests enforce this for
// every benchmark under every coherence protocol.
package workloads

import (
	"fmt"
	"math"

	"repro/gmac"
	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/metrics"
	"repro/internal/oplog"
	"repro/internal/sim"
	"repro/machine"
)

// Variant names one programming-model configuration of a workload run.
type Variant string

// The four variants compared in Figures 7, 8 and 10.
const (
	VariantCUDA    Variant = "cuda"
	VariantBatch   Variant = "gmac-batch"
	VariantLazy    Variant = "gmac-lazy"
	VariantRolling Variant = "gmac-rolling"
)

// Report captures one workload run.
type Report struct {
	Benchmark string
	Variant   Variant
	// Time is the end-to-end virtual execution time.
	Time sim.Time
	// Breakdown is the Figure 10 category split.
	Breakdown *sim.Breakdown
	// GMAC holds the manager counters (zero-valued for the CUDA variant).
	GMAC core.Stats
	// Dev holds the device counters (transfer volumes for every variant).
	Dev accel.Stats
	// Checksum fingerprints the computed output for cross-variant
	// verification.
	Checksum float64
	// FaultP50Ns/P95Ns/P99Ns estimate this run's fault-service latency
	// percentiles (GMAC variants only; the delta of the process-wide
	// adsm_fault_service_ns histogram across the run).
	FaultP50Ns, FaultP95Ns, FaultP99Ns int64
	// OpLog is the recorded op stream when Options.Record asked for one
	// (GMAC variants only; nil otherwise).
	OpLog *oplog.Log
}

func (r Report) String() string {
	return fmt.Sprintf("%s/%s: %v (H2D %d B, D2H %d B, checksum %g)",
		r.Benchmark, r.Variant, r.Time, r.Dev.BytesH2D, r.Dev.BytesD2H, r.Checksum)
}

// Benchmark is one workload, runnable under both programming models.
type Benchmark interface {
	// Name returns the Parboil benchmark name.
	Name() string
	// Description returns the Table 2 description.
	Description() string
	// Register installs the workload's kernels on the device.
	Register(dev *accel.Device)
	// Prepare creates the workload's input files (cost-free, as the
	// paper's timings begin after the input generator ran).
	Prepare(m *machine.Machine) error
	// RunCUDA executes the explicit-transfer baseline and returns the
	// output checksum.
	RunCUDA(m *machine.Machine, rt *cudart.Runtime) (float64, error)
	// RunGMAC executes the ADSM version and returns the output checksum.
	// It is written against the Session interface, so the same code runs
	// on a single accelerator (Context) or across several (MultiContext).
	RunGMAC(s gmac.Session) (float64, error)
}

// Options configures a GMAC run.
type Options struct {
	// Protocol selects the coherence protocol (default RollingUpdate).
	Protocol gmac.Protocol
	// BlockSize is the rolling-update block size (default 256 KiB).
	BlockSize int64
	// FixedRolling pins the rolling size (Figure 12); 0 means adaptive.
	FixedRolling int
	// MaxRetries bounds transparent retries of injected faults (the
	// gmacbench -faults mode); 0 selects the runtime default.
	MaxRetries int
	// Record captures the run's op stream into a ring of this capacity
	// (ops; the oplog default if negative, off if 0). The stream lands in
	// Report.OpLog for corpus recording and replay conformance.
	Record int
	// Mode overrides the access mode of every allocation the workload
	// makes (the modes ablation). The zero value (gmac.ReadWrite) leaves
	// the workload's own declarations unchanged; gmac.Auto lets the
	// runtime pick per-object protocols online.
	Mode gmac.AccessMode
	// RaceDetect enables the online race detector for the GMAC variant;
	// detected races land in Report.GMAC.RacesDetected.
	RaceDetect bool
	// DisableFaultBatching turns off span-fault batching for the GMAC
	// variant (the batched/unbatched conformance comparison).
	DisableFaultBatching bool
	// Machine builds the testbed (default machine.PaperTestbed). The run
	// owns the machine it gets and closes it.
	Machine func() *machine.Machine
}

func (o Options) machine() *machine.Machine {
	if o.Machine != nil {
		return o.Machine()
	}
	return machine.PaperTestbed()
}

// RunCUDA executes the baseline variant of b on a fresh machine, which it
// closes before returning.
func RunCUDA(b Benchmark, opt Options) (Report, error) {
	m := opt.machine()
	defer m.Close()
	b.Register(m.Device())
	if err := b.Prepare(m); err != nil {
		return Report{}, fmt.Errorf("%s: prepare: %w", b.Name(), err)
	}
	rt := cudart.New(m.Device(), m.Clock, m.Breakdown)
	start := m.Elapsed()
	sum, err := b.RunCUDA(m, rt)
	if err != nil {
		return Report{}, fmt.Errorf("%s/cuda: %w", b.Name(), err)
	}
	return Report{
		Benchmark: b.Name(),
		Variant:   VariantCUDA,
		Time:      m.Elapsed() - start,
		Breakdown: m.Breakdown.Clone(),
		Dev:       m.Device().Stats(),
		Checksum:  sum,
	}, nil
}

// RunGMAC executes the ADSM variant of b on a fresh machine, which it
// closes before returning.
func RunGMAC(b Benchmark, opt Options) (Report, error) {
	m := opt.machine()
	defer m.Close()
	b.Register(m.Device())
	if err := b.Prepare(m); err != nil {
		return Report{}, fmt.Errorf("%s: prepare: %w", b.Name(), err)
	}
	ctx, err := gmac.NewContext(m, gmac.Config{
		Protocol:             opt.Protocol,
		BlockSize:            opt.BlockSize,
		FixedRolling:         opt.FixedRolling,
		MaxRetries:           opt.MaxRetries,
		RaceDetect:           opt.RaceDetect,
		DisableFaultBatching: opt.DisableFaultBatching,
	})
	if err != nil {
		return Report{}, err
	}
	// The fault-service histogram lives in the shared process registry, so
	// this run's latency distribution is the delta against a pre-run
	// snapshot.
	faultHist := metrics.Default().Histogram(
		metrics.Label("adsm_fault_service_ns", "protocol", opt.Protocol.String()),
		metrics.LatencyBuckets)
	faultBase := faultHist.Snapshot()
	if opt.Record != 0 {
		ctx.EnableRecorder(opt.Record)
	}
	var s gmac.Session = ctx
	if opt.Mode != gmac.ReadWrite {
		s = &modeSession{Session: ctx, mode: opt.Mode}
	}
	start := m.Elapsed()
	sum, err := b.RunGMAC(s)
	if err != nil {
		return Report{}, fmt.Errorf("%s/%v: %w", b.Name(), opt.Protocol, err)
	}
	variant := VariantBatch
	switch opt.Protocol {
	case gmac.BatchUpdate:
		variant = VariantBatch
	case gmac.LazyUpdate:
		variant = VariantLazy
	case gmac.RollingUpdate:
		variant = VariantRolling
	}
	var oplogRec *oplog.Log
	if opt.Record != 0 {
		oplogRec, err = ctx.FinishOpLog(b.Name() + "/" + string(variant))
		if err != nil {
			return Report{}, fmt.Errorf("%s/%v: finish oplog: %w", b.Name(), opt.Protocol, err)
		}
	}
	faultDelta := faultHist.Snapshot().Sub(faultBase)
	return Report{
		Benchmark:  b.Name(),
		Variant:    variant,
		Time:       m.Elapsed() - start,
		Breakdown:  m.Breakdown.Clone(),
		GMAC:       ctx.Stats(),
		Dev:        m.Device().Stats(),
		Checksum:   sum,
		FaultP50Ns: faultDelta.Quantile(0.50),
		FaultP95Ns: faultDelta.Quantile(0.95),
		FaultP99Ns: faultDelta.Quantile(0.99),
		OpLog:      oplogRec,
	}, nil
}

// modeSession forces an access mode onto every allocation of a wrapped
// session. The override is appended after the workload's own options, so
// it wins even where a workload declares a mode itself.
type modeSession struct {
	gmac.Session
	mode gmac.AccessMode
}

func (s *modeSession) Alloc(size int64, opts ...gmac.AllocOption) (gmac.Ptr, error) {
	return s.Session.Alloc(size, append(append([]gmac.AllocOption(nil), opts...), gmac.Mode(s.mode))...)
}

// RunAllVariants runs b under the CUDA baseline and all three protocols.
func RunAllVariants(b Benchmark, opt Options) (map[Variant]Report, error) {
	out := make(map[Variant]Report, 4)
	cuda, err := RunCUDA(b, opt)
	if err != nil {
		return nil, err
	}
	out[VariantCUDA] = cuda
	for _, p := range []gmac.Protocol{gmac.BatchUpdate, gmac.LazyUpdate, gmac.RollingUpdate} {
		o := opt
		o.Protocol = p
		r, err := RunGMAC(b, o)
		if err != nil {
			return nil, err
		}
		out[r.Variant] = r
	}
	return out, nil
}

// --- shared helpers ---

// Rand is a small deterministic xorshift64* generator so every variant of
// a workload sees identical inputs on every platform.
type Rand struct{ s uint64 }

// NewRand seeds a generator; seed 0 is remapped to a fixed constant.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{s: seed}
}

// Uint64 returns the next raw 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// Float32 returns a value in [0, 1).
func (r *Rand) Float32() float32 {
	return float32(r.Uint64()>>40) / float32(1<<24)
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("workloads: Intn requires n > 0")
	}
	return int(r.Uint64() % uint64(n))
}

// f32bytes serialises a float32 slice little-endian.
func f32bytes(xs []float32) []byte {
	out := make([]byte, 4*len(xs))
	for i, x := range xs {
		putF32(out[i*4:], x)
	}
	return out
}

func putF32(b []byte, x float32) {
	v := math.Float32bits(x)
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getF32(b []byte) float32 {
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	return math.Float32frombits(v)
}

// checksum folds a float32 slice into a stable fingerprint. It quantises
// each element so the result is insensitive to benign rounding.
func checksum(xs []float32) float64 {
	var s float64
	for i, x := range xs {
		s += float64(x) * float64(1+(i%7))
	}
	return math.Round(s*1e3) / 1e3
}

// checksumBytes folds raw bytes (integer outputs).
func checksumBytes(bs []byte) float64 {
	var s uint64
	for i, b := range bs {
		s = s*31 + uint64(b) + uint64(i%13)
	}
	return float64(s % (1 << 52))
}
