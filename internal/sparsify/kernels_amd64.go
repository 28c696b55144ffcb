//go:build !purego

package sparsify

import "fftgrad/internal/cpu"

// The AVX2 kernel set (kernels_amd64.s), selected once if cpu.AVX2. Each
// wrapper hands the assembly the whole groups it works in and runs the
// rest through the Go reference.

//go:noescape
func magsAVX2(mags *float64, bins *complex128, n4 int)

//go:noescape
func maskWordsAVX2(gt, eq *uint64, mags *float64, nwords int, thr float64)

//go:noescape
func narrowAVX2(dst *float32, src *float64, n8 int)

//go:noescape
func narrowAccAVX2(dst *float32, src *float64, n8 int, wt, scale float32)

func init() {
	if cpu.AVX2 {
		active = kernels{magsVec, maskWordsVec, narrowVec, narrowAccVec}
	}
}

func magsVec(mags []float64, bins []complex128, lo, hi int) {
	if n4 := (hi - lo) / 4; n4 > 0 {
		_ = mags[lo+4*n4-1]
		_ = bins[lo+4*n4-1]
		magsAVX2(&mags[lo], &bins[lo], n4)
		lo += 4 * n4
	}
	magsComplex(mags, bins, lo, hi)
}

func maskWordsVec(gt, eq []uint64, mags []float64, thr float64) {
	if len(gt) > 0 {
		_ = eq[len(gt)-1]
		_ = mags[64*len(gt)-1]
		maskWordsAVX2(&gt[0], &eq[0], &mags[0], len(gt), thr)
	}
}

func narrowVec(dst []float32, src []float64, lo, hi int) {
	if n8 := (hi - lo) / 8; n8 > 0 {
		_ = dst[lo+8*n8-1]
		_ = src[lo+8*n8-1]
		narrowAVX2(&dst[lo], &src[lo], n8)
		lo += 8 * n8
	}
	narrowF64(dst, src, lo, hi)
}

func narrowAccVec(dst []float32, src []float64, a accum, lo, hi int) {
	if n8 := (hi - lo) / 8; n8 > 0 {
		_ = dst[lo+8*n8-1]
		_ = src[lo+8*n8-1]
		narrowAccAVX2(&dst[lo], &src[lo], n8, a.wt, a.scale)
		lo += 8 * n8
	}
	narrowAccF64(dst, src, a, lo, hi)
}
