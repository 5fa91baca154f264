package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Category labels one slice of the execution-time breakdown reported in
// Figure 10 of the paper. The names match the paper's legend.
type Category string

// The breakdown categories used by the GMAC runtime and the CUDA baseline.
const (
	CatCopy       Category = "Copy"       // GMAC-initiated data transfers
	CatMalloc     Category = "Malloc"     // adsmAlloc host-side work
	CatFree       Category = "Free"       // adsmFree host-side work
	CatLaunch     Category = "Launch"     // adsmCall host-side work
	CatSync       Category = "Sync"       // adsmSync stall time
	CatSignal     Category = "Signal"     // page-fault/signal delivery
	CatCudaMalloc Category = "cudaMalloc" // device allocation
	CatCudaFree   Category = "cudaFree"   // device release
	CatCudaLaunch Category = "cudaLaunch" // device kernel dispatch
	CatGPU        Category = "GPU"        // accelerator execution
	CatIORead     Category = "IORead"     // file reads
	CatIOWrite    Category = "IOWrite"    // file writes
	CatCPU        Category = "CPU"        // application CPU computation
)

// Categories lists every breakdown category in the paper's legend order.
func Categories() []Category {
	return []Category{
		CatCopy, CatMalloc, CatFree, CatLaunch, CatSync, CatSignal,
		CatCudaMalloc, CatCudaFree, CatCudaLaunch, CatGPU,
		CatIORead, CatIOWrite, CatCPU,
	}
}

// numCategories is the size of the fixed charge array. The order below
// must match catIndex.
const numCategories = 13

// catIndex maps a known category to its slot in the fixed array, or -1.
// The fault handler charges the breakdown several times per fault, so this
// is a compiled string switch rather than a map lookup.
func catIndex(cat Category) int {
	switch cat {
	case CatCopy:
		return 0
	case CatMalloc:
		return 1
	case CatFree:
		return 2
	case CatLaunch:
		return 3
	case CatSync:
		return 4
	case CatSignal:
		return 5
	case CatCudaMalloc:
		return 6
	case CatCudaFree:
		return 7
	case CatCudaLaunch:
		return 8
	case CatGPU:
		return 9
	case CatIORead:
		return 10
	case CatIOWrite:
		return 11
	case CatCPU:
		return 12
	default:
		return -1
	}
}

// catAt is the inverse of catIndex.
var catAt = [numCategories]Category{
	CatCopy, CatMalloc, CatFree, CatLaunch, CatSync, CatSignal,
	CatCudaMalloc, CatCudaFree, CatCudaLaunch, CatGPU,
	CatIORead, CatIOWrite, CatCPU,
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
// categories listed by Categories.
//
//adsm:noalloc
func (b *Breakdown) Add(cat Category, d Time) {
	if d < 0 {
		panicNegativeCharge(cat, d)
	}
	i := catIndex(cat)
	if i < 0 {
		panicUnknownCategory(cat)
	}
	b.counts[i].Add(int64(d))
}

// panicUnknownCategory formats the misuse panic off the hot path.
//
//adsm:cold
func panicUnknownCategory(cat Category) {
	panic(fmt.Sprintf("sim: breakdown charge to unknown category %q", cat))
}

// panicNegativeCharge formats the misuse panic off the hot path.
//
//adsm:cold
func panicNegativeCharge(cat Category, d Time) {
	panic(fmt.Sprintf("sim: negative breakdown charge %d to %s", d, cat))
}

// Get returns the accumulated time for cat (zero for an unknown one).
func (b *Breakdown) Get(cat Category) Time {
	if i := catIndex(cat); i >= 0 {
		return Time(b.counts[i].Load())
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
			out[catAt[i]] = v
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

// Reset clears all buckets.
func (b *Breakdown) Reset() {
	for i := range b.counts {
		b.counts[i].Store(0)
	}
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
		return items[i].cat < items[j].cat
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
