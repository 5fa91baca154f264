package core

import (
	"fmt"
	"reflect"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Stats aggregates the manager's activity counters. Figures 8, 10, 11 and
// 12 of the paper are computed from these.
type Stats struct {
	// Transfer volumes, as counted by the manager (Figure 8).
	BytesH2D, BytesD2H         int64
	TransfersH2D, TransfersD2H int64

	// Fault activity (the "Signal" discussion around Figure 10).
	Faults, ReadFaults, WriteFaults int64

	// Rolling-update eviction traffic.
	Evictions int64

	// CPU stall time attributable to transfers in each direction
	// (Figure 11 plots these as "CPU to GPU Time" / "GPU to CPU Time").
	H2DWait, D2HWait sim.Time
	// H2DDrain is flushed-but-in-flight transfer backlog observed at
	// kernel invocations: the part of eager H2D traffic that did not
	// overlap with CPU work and delays the kernel instead.
	H2DDrain sim.Time

	// SearchTime is the virtual time spent walking the block tree in the
	// fault handler (the dominant small-block overhead in Figure 11).
	SearchTime sim.Time

	// Peer-DMA traffic: bytes moved directly between I/O devices and
	// accelerator memory, bypassing system-memory staging.
	PeerBytesIn, PeerBytesOut int64

	// API call counts.
	Allocs, Frees, Invokes, Syncs int64

	// Fault-recovery activity (the chaos harness): transparent retries of
	// injected transfer/launch faults, retry budgets exhausted, objects
	// degraded to host-resident mode, and device-loss transitions.
	Retries, RetryGiveups             int64
	DegradedObjects, DeviceLostEvents int64

	// Access-mode activity (mode.go): block fetches elided by
	// read-only/write-only declarations.
	FetchElisions int64

	// Span-fault batching activity (fault.go): multi-block fault-service
	// DMAs (FaultBatches), blocks brought in by them beyond the faulting one
	// (PrefetchedBlocks), and the adaptive-granularity decisions that size
	// the runs (SpanPromotions doubles the streak span, SpanDemotions resets
	// it on non-sequential faults).
	FaultBatches, PrefetchedBlocks int64
	SpanPromotions, SpanDemotions  int64
}

// counter is one Stats counter: the manager's own count and, for the
// counters published as adsm_*_total{protocol=...} families (newMetricSet,
// in observe.go), the process-wide family every Add also feeds. A nil family
// is an unpublished counter — and the zero statsCounters is a valid
// accumulator, which is how tests fold a recorded stream.
type counter struct {
	v      atomic.Int64
	family *metrics.Counter
}

// Add adds n to the counter and to the family it is published under.
func (c *counter) Add(n int64) {
	c.v.Add(n)
	if c.family != nil {
		c.family.Add(n)
	}
}

// statsCounters is the lock-free backing store for Stats: one atomic per
// counter, field names identical to Stats so load can copy by name. The
// mutation sites sit on the fault hot path of every concurrent lane, so a
// shared stats mutex would serialise exactly the fault storms the sharded
// registry lets proceed in parallel; plain atomic adds keep the counters
// race-free with no critical section at all. TestStatsCountersParity pins
// the field-name correspondence (and load panics on any divergence, so a
// counter added to one struct but not the other cannot ship). The event
// counters are written only by apply (event.go), the fold over the op
// stream.
type statsCounters struct {
	BytesH2D, BytesD2H         counter
	TransfersH2D, TransfersD2H counter

	Faults, ReadFaults, WriteFaults counter

	Evictions counter

	H2DWait, D2HWait counter
	H2DDrain         counter

	SearchTime counter

	PeerBytesIn, PeerBytesOut counter

	Allocs, Frees, Invokes, Syncs counter

	Retries, RetryGiveups             counter
	DegradedObjects, DeviceLostEvents counter

	FetchElisions counter

	FaultBatches, PrefetchedBlocks counter
	SpanPromotions, SpanDemotions  counter
}

// load snapshots the atomic counters into a Stats value, matching fields
// by name. A statsCounters field with no Stats counterpart panics here, so
// the two structs cannot silently drift apart.
func (c *statsCounters) load() Stats {
	var out Stats
	cv := reflect.ValueOf(c).Elem()
	ov := reflect.ValueOf(&out).Elem()
	for i := 0; i < cv.NumField(); i++ {
		name := cv.Type().Field(i).Name
		f := ov.FieldByName(name)
		if !f.IsValid() {
			panic(fmt.Sprintf("core: statsCounters field %s has no Stats counterpart", name))
		}
		f.SetInt(cv.Field(i).Addr().Interface().(*counter).v.Load())
	}
	return out
}

// Sub returns the difference s - base, counter by counter. Experiment
// harnesses use it to isolate one phase of a run. It walks the struct with
// reflection so a counter added to Stats can never be silently dropped
// from the subtraction: every field must be an integer-kinded type (int64,
// sim.Time) or Sub panics.
func (s Stats) Sub(base Stats) Stats {
	var out Stats
	sv := reflect.ValueOf(s)
	bv := reflect.ValueOf(base)
	ov := reflect.ValueOf(&out).Elem()
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Field(i)
		if f.Kind() != reflect.Int64 {
			panic(fmt.Sprintf("core: Stats.Sub cannot subtract field %s of kind %v",
				sv.Type().Field(i).Name, f.Kind()))
		}
		ov.Field(i).SetInt(f.Int() - bv.Field(i).Int())
	}
	return out
}

// Counters returns the deterministic subset of the stats as a name→value
// map: every field except virtual-time accumulators (sim.Time). Replay
// conformance checks compare these maps — a replay re-executes the same
// coherence decisions (same faults, transfers, evictions) but not the same
// wall of virtual time, because stub kernels and snapshot-free machines
// time differently. Reflection-driven like Sub/Add, so a counter added to
// Stats is never silently dropped from the conformance check.
func (s Stats) Counters() map[string]int64 {
	sv := reflect.ValueOf(s)
	timeType := reflect.TypeOf(sim.Time(0))
	out := make(map[string]int64, sv.NumField())
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Type().Field(i)
		if f.Type == timeType {
			continue
		}
		if f.Type.Kind() != reflect.Int64 {
			panic(fmt.Sprintf("core: Stats.Counters cannot export field %s of kind %v",
				f.Name, f.Type.Kind()))
		}
		out[f.Name] = sv.Field(i).Int()
	}
	return out
}

// Add returns the sum s + other, counter by counter: the mirror of Sub,
// used by multi-accelerator front ends to aggregate per-device managers.
// Like Sub it walks the struct with reflection, so a counter added to Stats
// can never be silently dropped from the aggregate.
func (s Stats) Add(other Stats) Stats {
	var out Stats
	sv := reflect.ValueOf(s)
	bv := reflect.ValueOf(other)
	ov := reflect.ValueOf(&out).Elem()
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Field(i)
		if f.Kind() != reflect.Int64 {
			panic(fmt.Sprintf("core: Stats.Add cannot sum field %s of kind %v",
				sv.Type().Field(i).Name, f.Kind()))
		}
		ov.Field(i).SetInt(f.Int() + bv.Field(i).Int())
	}
	return out
}
