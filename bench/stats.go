package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile: with fewer, the figure is one outlier's timing, not a
// property of the distribution.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of an
// ascending sample set. It refuses to report a percentile with fewer than
// minBeyond samples beyond it.
func percentile(sorted []int32, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile: no samples")
	}
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if beyond := n - 1 - k; beyond < minBeyond {
		return 0, fmt.Errorf("percentile: p%g of %d samples has only %d beyond it (need %d)", p, n, beyond, minBeyond)
	}
	return float64(sorted[k]), nil
}

// median returns the median of xs (which it does not modify).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method), so
// the spread this program prints is the spread the benchmark contract's
// driver computes. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of xs as a share of their median:
// the steadiness figure the contract bounds.
func spread(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}
