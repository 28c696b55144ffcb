// Package sparsify implements the two gradient sparsification strategies
// the paper compares (Sec. 3.1.1): direct spatial Top-k thresholding, and
// the paper's FFT-based Top-k which drops low-magnitude *frequency*
// coefficients so the reconstructed gradient keeps the distribution of the
// original signal (Fig. 5).
//
// θ (theta) is the drop-out ratio throughout: θ = 0.85 drops 85% of the
// components and keeps the top 15% by magnitude.
package sparsify

import (
	"math"

	"fftgrad/internal/parallel"
	"fftgrad/internal/scratch"
	"fftgrad/internal/topk"
)

// KeepCount returns the number of components kept from total at drop ratio
// theta: ceil((1-θ)·total), clamped to [0, total].
func KeepCount(total int, theta float64) int {
	if theta <= 0 {
		return total
	}
	if theta >= 1 {
		return 0
	}
	// The 1e-9 guard absorbs float error in (1-θ)·total (e.g. 0.15·100 =
	// 15.000000000000002) without changing genuinely fractional counts.
	k := int(math.Ceil((1-theta)*float64(total) - 1e-9))
	if k > total {
		k = total
	}
	return k
}

// TopKSpatial zeroes all but the top-(1-θ) fraction of x by magnitude, in
// place, and returns the keep bitmap (one bit per element). This is the
// vanilla Top-k baseline (Aji & Heafield 2017) without error accumulation.
func TopKSpatial(x []float32, theta float64) []uint64 {
	mask := make([]uint64, (len(x)+63)/64)
	TopKSpatialMask(mask, x, theta)
	parallel.For2(len(x), x, mask, func(x []float32, mask []uint64, lo, hi int) {
		for i := lo; i < hi; i++ {
			if mask[i>>6]&(1<<(uint(i)&63)) == 0 {
				x[i] = 0
			}
		}
	})
	return mask
}

// TopKSpatialMask fills mask (⌈len(x)/64⌉ words) with the keep bitmap of
// the top-(1-θ) fraction of x by magnitude, without modifying x. All
// temporaries are pooled, so the steady state allocates nothing. Callers
// packing values directly by bitmap do not need the zeroing pass of
// TopKSpatial.
func TopKSpatialMask(mask []uint64, x []float32, theta float64) {
	n := len(x)
	k := KeepCount(n, theta)
	magsb := scratch.Float64s(n)
	defer scratch.PutFloat64s(magsb)
	mags := *magsb
	parallel.For2(n, mags, x, func(mags []float64, x []float32, lo, hi int) {
		for i := lo; i < hi; i++ {
			m := float64(x[i])
			if m < 0 {
				m = -m
			}
			mags[i] = m
		}
	})
	topk.MaskTopKInto(mask, mags, k)
}
