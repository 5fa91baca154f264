// Package bitmap holds the range operations on the simulator's page
// bitmaps: one bit per page in a []uint64, page i at bit i&63 of word
// i>>6 (the manager's dirty and owed pages, an H2D write-back's page
// mask). Each walks its range by the 64-bit word, with a mask on the first
// and last words, so a range costs one step per 64 pages, not one per
// page. Ranges are half-open, [lo, hi). None allocates.
package bitmap

import "math/bits"

// mask returns the bits of word w that lie in [lo, hi), lo < hi.
//
//adsm:noalloc
func mask(w, lo, hi uint64) uint64 {
	m := ^uint64(0)
	if w == lo>>6 {
		m <<= lo & 63
	}
	if w == (hi-1)>>6 {
		m &= ^uint64(0) >> (63 - (hi-1)&63)
	}
	return m
}

// Set sets bits [lo, hi) of bm and returns how many of them were clear.
//
//adsm:noalloc
func Set(bm []uint64, lo, hi uint64) int {
	n := 0
	for w := lo >> 6; lo < hi && w <= (hi-1)>>6; w++ {
		m := mask(w, lo, hi) &^ bm[w]
		n += bits.OnesCount64(m)
		bm[w] |= m
	}
	return n
}

// Clear clears bits [lo, hi) of bm and returns how many of them were set.
//
//adsm:noalloc
func Clear(bm []uint64, lo, hi uint64) int {
	n := 0
	for w := lo >> 6; lo < hi && w <= (hi-1)>>6; w++ {
		m := mask(w, lo, hi) & bm[w]
		n += bits.OnesCount64(m)
		bm[w] &^= m
	}
	return n
}

// Run returns the end q of the run of bits [p, q), q <= end, that all
// equal bit p, and whether that bit is set; p < end.
//
//adsm:noalloc
func Run(bm []uint64, p, end uint64) (q uint64, set bool) {
	w := p >> 6
	set = bm[w]>>(p&63)&1 != 0
	var flip uint64
	if set {
		flip = ^uint64(0)
	}
	// The bits of word w at or above p that differ from bit p.
	diff := (bm[w] ^ flip) &^ (1<<(p&63) - 1)
	for diff == 0 {
		if w++; w<<6 >= end {
			return end, set
		}
		diff = bm[w] ^ flip
	}
	return min(w<<6+uint64(bits.TrailingZeros64(diff)), end), set
}
