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
	"repro/internal/mem"
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
	start := m.Elapsed()
	sum, err := b.RunGMAC(ctx)
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

// checksumBytes folds raw bytes (integer outputs) into
// s = Σ (b[i] + i mod 13)·31^(n-1-i) mod 2^64 and keeps its low 52 bits.
// The sum is exact in any cut of bs, so the pieces fold on the host's
// cores and combine in order: s = s·31^len(piece) + s(piece).
func checksumBytes(bs []byte) float64 {
	n := len(bs)
	parts := make([]uint64, mem.Pieces(n, sumPiece))
	mem.Split(n, sumPiece, func(p, lo, hi int) { parts[p] = horner31(bs[lo:hi], lo%13) })
	var s uint64
	for p, v := range parts {
		s = s*pow31(min(sumPiece, n-p*sumPiece)) + v
	}
	return float64(s % (1 << 52))
}

// sumPiece is the byte length of one checksumBytes piece: only pns's
// marking (48 MiB at evaluation scale) is longer.
const sumPiece = 1 << 20

// horner31 is Σ (bs[i] + (r+i) mod 13)·31^(len-1-i) mod 2^64, for r < 13.
// It takes eight bytes a step, s·31^8 + Σ bs[k]·31^(7-k) + Σ ((r+k) mod
// 13)·31^(7-k): the eight products are independent, and the index terms
// sum to a value that depends on r alone (index8).
func horner31(bs []byte, r int) uint64 {
	var s uint64
	for ; len(bs) >= 8; bs = bs[8:] {
		s = s*pow31x8 + uint64(bs[0])*pow31x7 + uint64(bs[1])*pow31x6 +
			uint64(bs[2])*pow31x5 + uint64(bs[3])*pow31x4 + uint64(bs[4])*pow31x3 +
			uint64(bs[5])*pow31x2 + uint64(bs[6])*31 + uint64(bs[7]) + index8[r]
		if r += 8; r >= 13 {
			r -= 13
		}
	}
	for _, b := range bs {
		s = s*31 + uint64(b) + uint64(r)
		if r++; r == 13 {
			r = 0
		}
	}
	return s
}

// Powers of 31 for horner31's eight-byte step.
const (
	pow31x2 = 31 * 31
	pow31x3 = pow31x2 * 31
	pow31x4 = pow31x3 * 31
	pow31x5 = pow31x4 * 31
	pow31x6 = pow31x5 * 31
	pow31x7 = pow31x6 * 31
	pow31x8 = pow31x7 * 31
)

// index8[r] is Σ ((r+k) mod 13)·31^(7-k) over k < 8: the index terms of
// an eight-byte step that starts at index r mod 13.
var index8 = func() (t [13]uint64) {
	for r := range t {
		for k := range 8 {
			t[r] = t[r]*31 + uint64((r+k)%13)
		}
	}
	return t
}()

// pow31 is 31^k mod 2^64.
func pow31(k int) uint64 {
	p, b := uint64(1), uint64(31)
	for ; k > 0; k >>= 1 {
		if k&1 != 0 {
			p *= b
		}
		b *= b
	}
	return p
}

// pieceHook, when set, is told how many pieces each split kernel body ran.
// Tests set it; nothing else does.
var pieceHook func(kernel string, pieces int)

// splitKernel runs a kernel body's do over the output elements [0, n) in
// pieces of the given size on the host's cores (mem.Split): one piece runs
// on the caller. A body whose elements share an accumulator keeps one
// partial per piece and combines them in piece order after splitKernel
// returns; a float accumulation is never cut, each element keeps its
// serial inner loop, so every result is bit-identical to the serial body.
// Launches still run one at a time under the device's lock.
func splitKernel(kernel string, n, piece int64, do func(p int, lo, hi int64)) {
	pieces := mem.Split(int(n), int(piece), func(p, lo, hi int) { do(p, int64(lo), int64(hi)) })
	if pieceHook != nil {
		pieceHook(kernel, pieces)
	}
}
