//go:build !purego

package f16

import "fftgrad/internal/cpu"

//go:noescape
func roundWidenAVX2(dst *float64, src *float32, n8 int)

func init() {
	if cpu.AVX2 {
		roundWidenVec = roundWidenGroups
	}
}

// roundWidenGroups hands the whole groups of eight to the assembly.
func roundWidenGroups(dst []float64, src []float32) int {
	if n8 := len(src) / 8; n8 > 0 {
		roundWidenAVX2(&dst[0], &src[0], n8)
	}
	return len(src) &^ 7
}
