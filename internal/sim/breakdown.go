package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Category labels one slice of the execution-time breakdown reported in
// Figure 10 of the paper. Its String, and its text form in JSON, is the
// paper's legend name.
type Category uint8

// The breakdown categories used by the GMAC runtime and the CUDA baseline,
// in the paper's legend order.
const (
	CatCopy       Category = iota // GMAC-initiated data transfers
	CatMalloc                     // adsmAlloc host-side work
	CatFree                       // adsmFree host-side work
	CatLaunch                     // adsmCall host-side work
	CatSync                       // adsmSync stall time
	CatSignal                     // page-fault/signal delivery
	CatCudaMalloc                 // device allocation
	CatCudaFree                   // device release
	CatCudaLaunch                 // device kernel dispatch
	CatGPU                        // accelerator execution
	CatIORead                     // file reads
	CatIOWrite                    // file writes
	CatCPU                        // application CPU computation

	numCategories = iota
)

var categoryNames = [numCategories]string{
	"Copy", "Malloc", "Free", "Launch", "Sync", "Signal",
	"cudaMalloc", "cudaFree", "cudaLaunch", "GPU", "IORead", "IOWrite", "CPU",
}

func (c Category) String() string {
	if c < numCategories {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// MarshalText makes the legend name a breakdown map's JSON key.
func (c Category) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// Categories lists every breakdown category in the paper's legend order.
func Categories() []Category {
	cats := make([]Category, numCategories)
	for i := range cats {
		cats[i] = Category(i)
	}
	return cats
}

// Breakdown accumulates virtual time per category in a fixed array of
// atomics: the fault hot path charges Signal several times per fault, so
// Add must not take a lock or hash a string. Only the categories listed by
// Categories exist. All methods are safe for concurrent use; charges from
// several host goroutines accumulate without loss.
type Breakdown struct {
	counts [numCategories]atomic.Int64
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{}
}

// Add charges d of virtual time to cat, which must be one of the
// categories listed by Categories: any other value panics with an index
// out of range.
//
//adsm:noalloc
func (b *Breakdown) Add(cat Category, d Time) {
	if d < 0 {
		panicNegativeCharge(cat, d)
	}
	b.counts[cat].Add(int64(d))
}

// panicNegativeCharge formats the misuse panic off the hot path.
//
//adsm:cold
func panicNegativeCharge(cat Category, d Time) {
	panic(fmt.Sprintf("sim: negative breakdown charge %d to %s", d, cat))
}

// Get returns the accumulated time for cat (zero for an unknown one).
func (b *Breakdown) Get(cat Category) Time {
	if cat < numCategories {
		return Time(b.counts[cat].Load())
	}
	return 0
}

// Total returns the sum over all categories.
func (b *Breakdown) Total() Time {
	var t Time
	for i := range b.counts {
		t += Time(b.counts[i].Load())
	}
	return t
}

// Fraction returns cat's share of the total, in [0,1]. A breakdown with no
// recorded time reports 0 for every category.
func (b *Breakdown) Fraction(cat Category) float64 {
	total := b.Total()
	if total == 0 {
		return 0
	}
	return float64(b.Get(cat)) / float64(total)
}

// Map returns a copy of the non-zero buckets, for export (the Figure 10
// breakdown section of snapshots and the -json benchmark summaries).
func (b *Breakdown) Map() map[Category]Time {
	out := make(map[Category]Time, numCategories)
	for i := range b.counts {
		if v := Time(b.counts[i].Load()); v != 0 {
			out[Category(i)] = v
		}
	}
	return out
}

// Merge adds every bucket of other into b.
func (b *Breakdown) Merge(other *Breakdown) {
	for cat, v := range other.Map() {
		b.Add(cat, v)
	}
}

// Clone returns an independent copy of b.
func (b *Breakdown) Clone() *Breakdown {
	c := NewBreakdown()
	c.Merge(b)
	return c
}

// String renders the non-zero buckets, largest first.
func (b *Breakdown) String() string {
	type kv struct {
		cat Category
		t   Time
	}
	var items []kv
	for cat, t := range b.Map() {
		if t != 0 {
			items = append(items, kv{cat, t})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].t != items[j].t {
			return items[i].t > items[j].t
		}
		return items[i].cat.String() < items[j].cat.String()
	})
	var sb strings.Builder
	for i, it := range items {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s=%s", it.cat, it.t)
	}
	return sb.String()
}
