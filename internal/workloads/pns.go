package workloads

import (
	"repro/gmac"
	"repro/internal/accel"
	"repro/internal/cudart"
	"repro/internal/mem"
	"repro/machine"
)

// PNS is the Parboil Petri-net simulation benchmark: a large marking
// vector lives on the accelerator for the whole run while the CPU drives
// the simulation steps, polling a small statistics buffer for convergence
// every few steps. The marking is initialised on the accelerator itself
// (a seeding kernel), so nothing but the statistics buffer needs to cross
// the bus until the final state is read. This access pattern makes pns
// the worst case for batch-update (the paper measures a 65.18x slowdown):
// batch re-transfers the whole marking in both directions on every step.
type PNS struct {
	// Places is the marking-vector length in uint32 tokens.
	Places int64
	// Steps is the number of simulation steps (kernel invocations).
	Steps int
	// Stride is the firing sparsity of the simulated kernel body: one
	// transition per Stride places actually fires each step.
	Stride int64
	// CheckEvery is how often (in steps) the CPU polls the statistics
	// buffer for convergence.
	CheckEvery int
}

// DefaultPNS returns the evaluation-scale configuration (~48 MB of state).
func DefaultPNS() *PNS {
	return &PNS{Places: 12 << 20, Steps: 128, Stride: 256, CheckEvery: 4}
}

// SmallPNS returns a fast configuration for unit tests.
func SmallPNS() *PNS {
	return &PNS{Places: 16 << 10, Steps: 12, Stride: 16, CheckEvery: 2}
}

const pnsStatsWords = 1024 // statistics buffer: 4 KB

// pnsPiece is the number of transitions a pns.step piece fires: 12 pieces
// at evaluation scale, one in SmallPNS.
const pnsPiece = 4096

// Name implements Benchmark.
func (*PNS) Name() string { return "pns" }

// Description implements Benchmark.
func (*PNS) Description() string {
	return "Generic Petri net simulation; Petri nets are commonly used to model distributed systems."
}

// Prepare implements Benchmark (state is generated on the accelerator).
func (*PNS) Prepare(*machine.Machine) error { return nil }

// Register implements Benchmark.
func (p *PNS) Register(dev *accel.Device) {
	stride := p.Stride
	dev.Register(&accel.Kernel{
		Name: "pns.seed",
		// args: statePtr, places — deterministic initial marking.
		Run: func(devmem *mem.Space, args []uint64) {
			state, places := mem.Addr(args[0]), int64(args[1])
			sb := devmem.Bytes(state, places*4)
			for i := int64(0); i < places; i += stride {
				putLeU32(sb[i*4:], uint32(i/stride)%4)
			}
		},
		Cost: func(args []uint64) (float64, int64) {
			places := int64(args[1])
			return float64(places), places * 4
		},
	})
	dev.Register(&accel.Kernel{
		Name: "pns.step",
		// args: statePtr, statsPtr, places, step
		Run: func(devmem *mem.Space, args []uint64) {
			state, stats := mem.Addr(args[0]), mem.Addr(args[1])
			places, step := int64(args[2]), int64(args[3])
			sb := devmem.Bytes(state, places*4)
			// Transition k moves a token from place first+k·stride to
			// the place 13 further on (mod places). Transitions in
			// different pieces are independent when no target is
			// another's source. Every source is first mod stride; when
			// places is a multiple of stride, every target is first+13
			// mod stride, so that holds unless stride divides 13.
			// Otherwise the body runs as one piece.
			first := (step * 17) % stride
			fires := max(0, (places-first+stride-1)/stride)
			piece := int64(pnsPiece)
			if places%stride != 0 || 13%stride == 0 {
				piece = max(fires, 1)
			}
			parts := make([][2]uint32, mem.Pieces(int(fires), int(piece)))
			splitKernel("pns.step", fires, piece, func(p int, lo, hi int64) {
				var fired, tokens uint32
				for i := first + lo*stride; i < first+hi*stride; i += stride {
					src := i
					dst := (i + 13) % places
					sv := leU32(sb[src*4:])
					if sv > 0 {
						putLeU32(sb[src*4:], sv-1)
						putLeU32(sb[dst*4:], leU32(sb[dst*4:])+1)
						fired++
					}
					tokens += leU32(sb[dst*4:])
				}
				parts[p] = [2]uint32{fired, tokens}
			})
			var fired, tokens uint32
			for _, part := range parts {
				fired += part[0]
				tokens += part[1]
			}
			slot := mem.Addr((step % (pnsStatsWords / 2)) * 8)
			devmem.SetUint32(stats+slot, fired)
			devmem.SetUint32(stats+slot+4, tokens)
		},
		// The simulated body fires a strided sample; the cost model charges
		// the full marking scan the real kernel performs (reading every
		// place's enabling condition dominates: it is memory-bound).
		Cost: func(args []uint64) (float64, int64) {
			places := int64(args[2])
			return float64(places) / 4, places * 8 / 5
		},
	})
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLeU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// RunCUDA implements Benchmark.
func (p *PNS) RunCUDA(m *machine.Machine, rt *cudart.Runtime) (float64, error) {
	stateBytes := p.Places * 4
	hostState := rt.MallocHost(stateBytes)
	hostStats := rt.MallocHost(pnsStatsWords * 4)

	devState, err := rt.Malloc(stateBytes)
	if err != nil {
		return 0, err
	}
	devStats, err := rt.Malloc(pnsStatsWords * 4)
	if err != nil {
		return 0, err
	}
	rt.Memset(devState, 0, stateBytes)
	rt.Memset(devStats, 0, pnsStatsWords*4)
	if err := rt.Launch("pns.seed", uint64(devState), uint64(p.Places)); err != nil {
		return 0, err
	}

	var converged uint64
	for s := 0; s < p.Steps; s++ {
		if err := rt.Launch("pns.step", uint64(devState), uint64(devStats),
			uint64(p.Places), uint64(s)); err != nil {
			return 0, err
		}
		rt.Synchronize()
		if (s+1)%p.CheckEvery == 0 {
			// The CPU checks progress from the statistics buffer only.
			rt.MemcpyD2H(hostStats[:64], devStats)
			m.CPUCompute(64)
			converged += uint64(leU32(hostStats))
		}
	}
	rt.MemcpyD2H(hostState, devState)
	rt.MemcpyD2H(hostStats, devStats)
	m.CPUTouch(stateBytes)
	sum := checksumBytes(hostState) + float64(converged%1000) + checksumBytes(hostStats)
	if err := rt.Free(devState); err != nil {
		return 0, err
	}
	if err := rt.Free(devStats); err != nil {
		return 0, err
	}
	return sum, nil
}

// RunGMAC implements Benchmark.
func (p *PNS) RunGMAC(ctx gmac.Session) (float64, error) {
	m := ctx.Machine()
	stateBytes := p.Places * 4
	state, err := ctx.Alloc(stateBytes)
	if err != nil {
		return 0, err
	}
	stats, err := ctx.Alloc(pnsStatsWords * 4)
	if err != nil {
		return 0, err
	}
	if err := ctx.Memset(state, 0, stateBytes); err != nil {
		return 0, err
	}
	if err := ctx.Memset(stats, 0, pnsStatsWords*4); err != nil {
		return 0, err
	}
	if err := ctx.Call("pns.seed", []uint64{uint64(state), uint64(p.Places)}, gmac.Async()); err != nil {
		return 0, err
	}

	var converged uint64
	probe := make([]byte, 64)
	for s := 0; s < p.Steps; s++ {
		if err := ctx.Call("pns.step", []uint64{uint64(state), uint64(stats),
			uint64(p.Places), uint64(s)}); err != nil {
			return 0, err
		}
		if (s+1)%p.CheckEvery == 0 {
			// Plain read of the shared statistics buffer; the protocol
			// fetches only what is needed.
			if err := ctx.HostRead(stats, probe); err != nil {
				return 0, err
			}
			m.CPUCompute(64)
			converged += uint64(leU32(probe))
		}
	}
	finalState := make([]byte, stateBytes)
	if err := ctx.HostRead(state, finalState); err != nil {
		return 0, err
	}
	finalStats := make([]byte, pnsStatsWords*4)
	if err := ctx.HostRead(stats, finalStats); err != nil {
		return 0, err
	}
	m.CPUTouch(stateBytes)
	sum := checksumBytes(finalState) + float64(converged%1000) + checksumBytes(finalStats)
	if err := ctx.Free(state); err != nil {
		return 0, err
	}
	if err := ctx.Free(stats); err != nil {
		return 0, err
	}
	return sum, nil
}
