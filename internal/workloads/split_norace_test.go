//go:build !race

package workloads

import "testing"

// TestEvalScaleChecksumsPinned: the seven Parboil benchmarks at evaluation
// scale, where every split kernel runs several pieces, compute the
// checksums of the serial kernel bodies. (Too slow under the race
// detector; TestMidScaleChecksumsPinned covers the split there.)
func TestEvalScaleChecksumsPinned(t *testing.T) {
	checkSplitChecksums(t, Parboil(), Options{}, map[string]float64{
		"cp":      -806435,
		"mri-fhd": 1650.854,
		"mri-q":   142044.643,
		"pns":     6.234480502297661e+15,
		"rpes":    8.656388e+06,
		"sad":     4.49351766307613e+15,
		"tpacf":   1.4591111132895748e+16,
	})
}
