// Package fault is the deterministic fault-injection subsystem of the
// chaos harness: a seeded, schedule-driven injector that the interconnect,
// accelerator and filesystem layers consult before performing an
// operation. Schedules are expressed over per-operation sequence numbers
// ("fail the 3rd DMA", "fail every 5th kernel launch") or a seeded
// probability, so a given (seed, schedule) pair reproduces exactly the
// same injections at exactly the same virtual times — replaying a chaos
// failure is as simple as re-running with the same seed.
//
// The injector never mutates the layers it is installed in; it only
// decides. Each layer reacts to a decision in its own terms: a faulted DMA
// still occupies the engine for the attempt duration but does not deliver
// data, a faulted launch never runs the kernel body, a timeout charges
// extra virtual latency, and a device-lost fault is permanent.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Op identifies the class of operation a fault applies to.
type Op uint8

// Injectable operation classes.
const (
	// OpDMAH2D is a host-to-device DMA transfer.
	OpDMAH2D Op = iota
	// OpDMAD2H is a device-to-host DMA transfer.
	OpDMAD2H
	// OpLaunch is a kernel launch.
	OpLaunch
	// OpFileRead is a filesystem read.
	OpFileRead
	// OpFileWrite is a filesystem write.
	OpFileWrite

	nOps
)

func (o Op) String() string {
	switch o {
	case OpDMAH2D:
		return "dma-h2d"
	case OpDMAD2H:
		return "dma-d2h"
	case OpLaunch:
		return "launch"
	case OpFileRead:
		return "file-read"
	case OpFileWrite:
		return "file-write"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Kind classifies what an injected fault does to the operation.
type Kind uint8

// Fault kinds.
const (
	// KindTransient fails the operation once; a retry may succeed.
	KindTransient Kind = iota
	// KindTimeout fails the operation after charging an extra virtual
	// delay (the operation "hung" before the error surfaced).
	KindTimeout
	// KindCorrupt fails the operation after scribbling its destination:
	// detected corruption. Data from the failed attempt must never be
	// trusted; a retry must overwrite it entirely.
	KindCorrupt
	// KindDeviceLost is permanent: the device is declared lost and every
	// subsequent operation on it fails fast.
	KindDeviceLost
)

func (k Kind) String() string {
	switch k {
	case KindTransient:
		return "transient"
	case KindTimeout:
		return "timeout"
	case KindCorrupt:
		return "corrupt"
	case KindDeviceLost:
		return "device-lost"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ErrInjected is the sentinel wrapped by every injected fault; retry logic
// matches it with errors.Is to distinguish injected faults from
// programming errors (which must not be retried).
var ErrInjected = errors.New("fault: injected failure")

// ErrDeviceLost is the sentinel for permanent device loss. Errors of
// KindDeviceLost match both ErrInjected and ErrDeviceLost.
var ErrDeviceLost = errors.New("fault: device lost")

// DefaultTimeoutDelay is the virtual latency charged by KindTimeout faults
// whose rule does not set an explicit Delay.
const DefaultTimeoutDelay = 1 * sim.Millisecond

// Error is one injected fault.
type Error struct {
	// Op and Kind identify what failed and how.
	Op   Op
	Kind Kind
	// Seq is the 1-based per-Op sequence number of the failed operation.
	Seq int64
	// At is the virtual time the decision was made.
	At sim.Time
	// Delay is the extra virtual latency the caller must charge before
	// surfacing the error (non-zero for KindTimeout).
	Delay sim.Time
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s on %s #%d at %v", e.Kind, e.Op, e.Seq, e.At)
}

// Is matches ErrInjected for every injected fault and additionally
// ErrDeviceLost for permanent ones.
func (e *Error) Is(target error) bool {
	if target == ErrInjected {
		return true
	}
	return target == ErrDeviceLost && e.Kind == KindDeviceLost
}

// Rule is one entry of a fault schedule. Exactly one trigger field (Nth,
// Every, After, Prob) should be set; the constructors below build
// well-formed rules. Delay customises the timeout penalty.
type Rule struct {
	// Op selects the operation class the rule applies to.
	Op Op
	// Kind selects what the fault does.
	Kind Kind
	// Nth fires on exactly the Nth operation (1-based).
	Nth int64
	// Every fires on every Every-th operation (seq % Every == 0).
	Every int64
	// After fires on every operation with seq >= After.
	After int64
	// Prob fires with the given probability, drawn from the injector's
	// seeded generator.
	Prob float64
	// Delay overrides DefaultTimeoutDelay for KindTimeout faults.
	Delay sim.Time
}

// Nth returns a rule failing exactly the n-th (1-based) op of the class.
func Nth(op Op, n int64, kind Kind) Rule { return Rule{Op: op, Kind: kind, Nth: n} }

// EveryK returns a rule failing every k-th op of the class.
func EveryK(op Op, k int64, kind Kind) Rule { return Rule{Op: op, Kind: kind, Every: k} }

// After returns a rule failing every op of the class from the n-th on —
// with KindDeviceLost this is the "device falls off the bus" schedule.
func After(op Op, n int64, kind Kind) Rule { return Rule{Op: op, Kind: kind, After: n} }

// Prob returns a rule failing each op of the class with probability p.
func Prob(op Op, p float64, kind Kind) Rule { return Rule{Op: op, Kind: kind, Prob: p} }

// Injection is one log entry: an injected fault with its virtual time.
// The replay test compares whole logs across runs for exact equality.
type Injection struct {
	Op   Op       `json:"op"`
	Kind Kind     `json:"kind"`
	Seq  int64    `json:"seq"`
	At   sim.Time `json:"at"`
}

// maxLog bounds the injection log; chaos schedules stay far below it.
const maxLog = 1 << 16

// Injector decides, per operation, whether to inject a fault. It is safe
// for concurrent use; decisions are serialised so the seeded probability
// stream is consumed deterministically for a deterministic call order.
type Injector struct {
	mu    sync.Mutex
	clock *sim.Clock
	rng   *rand.Rand
	rules []Rule
	seq   [nOps]int64
	log   []Injection
	count [nOps]int64
	mets  [nOps]*metrics.Counter
}

// NewInjector builds an injector over the given schedule. clock may be nil
// (injections are then logged at time 0); seed drives the probabilistic
// rules.
func NewInjector(seed int64, clock *sim.Clock, rules ...Rule) *Injector {
	in := &Injector{
		clock: clock,
		rng:   rand.New(rand.NewSource(seed)),
		rules: rules,
	}
	r := metrics.Default()
	for op := Op(0); op < nOps; op++ {
		in.mets[op] = r.Counter(metrics.Label("fault_injected_total", "op", op.String()))
	}
	return in
}

// Decide advances the per-op sequence number and returns an *Error if the
// schedule injects a fault for this operation, nil otherwise. The first
// matching rule wins.
func (in *Injector) Decide(op Op) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seq[op]++
	seq := in.seq[op]
	for _, r := range in.rules {
		if r.Op != op {
			continue
		}
		hit := false
		switch {
		case r.Nth > 0:
			hit = seq == r.Nth
		case r.Every > 0:
			hit = seq%r.Every == 0
		case r.After > 0:
			hit = seq >= r.After
		case r.Prob > 0:
			hit = in.rng.Float64() < r.Prob
		}
		if !hit {
			continue
		}
		var at sim.Time
		if in.clock != nil {
			at = in.clock.Now()
		}
		delay := r.Delay
		if r.Kind == KindTimeout && delay == 0 {
			delay = DefaultTimeoutDelay
		}
		if len(in.log) < maxLog {
			in.log = append(in.log, Injection{Op: op, Kind: r.Kind, Seq: seq, At: at})
		}
		in.count[op]++
		in.mets[op].Inc()
		return &Error{Op: op, Kind: r.Kind, Seq: seq, At: at, Delay: delay}
	}
	return nil
}

// Count returns how many faults were injected for the class.
func (in *Injector) Count(op Op) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.count[op]
}

// Total returns the total number of injected faults.
func (in *Injector) Total() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var t int64
	for _, c := range in.count {
		t += c
	}
	return t
}

// Log returns a copy of the injection log, in decision order.
func (in *Injector) Log() []Injection {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Injection(nil), in.log...)
}
