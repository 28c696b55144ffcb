// Package topk implements k-th order-statistic selection used to threshold
// gradients (spatial Top-k sparsification) and gradient frequencies
// (FFT-based sparsification).
//
// The paper implements the selection with either sorting or a GPU k-select;
// it cites bucketSelect (Alabi et al., 2012). This package provides three
// interchangeable strategies with identical semantics:
//
//   - KthLargest: iterative quickselect with median-of-three pivots, O(n)
//     expected time on any mix of ties, operating on a scratch copy.
//   - KthLargestBucket: the bucketSelect analogue — a parallel histogram
//     over the value range, recursing into the bucket containing the k-th
//     element. Data-parallel and cache-friendly for large n.
//   - KthLargestSort: full sort, O(n log n); the reference used in tests.
//
// NaN ranks below every number in all three, so the k-th largest of an
// input with m NaNs is NaN exactly when k > len(x)-m.
package topk

import (
	"math"
	"sort"

	"fftgrad/internal/parallel"
	"fftgrad/internal/scratch"
)

// KthLargestSort returns the k-th largest element (1-based, so k=1 is the
// maximum) of x by full sorting. It is the reference implementation.
func KthLargestSort(x []float64, k int) float64 {
	checkK(len(x), k)
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return s[len(s)-k]
}

// KthLargest returns the k-th largest element (1-based) of x using
// iterative quickselect on a pooled scratch copy. Expected O(n); x is not
// modified, and the steady state allocates nothing.
func KthLargest(x []float64, k int) float64 {
	checkK(len(x), k)
	return kthLargestScratch(x, k)
}

// kthLargestScratch runs quickselect on a pooled copy of x.
func kthLargestScratch(x []float64, k int) float64 {
	sb := scratch.Float64s(len(x))
	defer scratch.PutFloat64s(sb)
	s := *sb
	copy(s, x)
	return kthLargestInPlace(s, k)
}

// kthLargestInPlace selects the k-th largest element, reordering s: Hoare's
// Find with a median-of-three pivot. Both scans stop at elements equal to
// the pivot, so a run of ties is split down the middle instead of landing
// on one side — all-equal input halves every round and selection stays
// linear on the tie-heavy vectors sparsification produces (a ReLU-dead
// gradient is mostly exact zeros). NaN ranks lowest, as in sort.Float64s:
// the NaNs are parked at the front first, which also keeps them away from
// the comparisons below.
func kthLargestInPlace(s []float64, k int) float64 {
	// Select index len-k in ascending order.
	target := len(s) - k
	lo, hi := 0, len(s)-1
	for i, v := range s {
		if v != v {
			s[i], s[lo] = s[lo], s[i]
			lo++
		}
	}
	if target < lo {
		return s[target]
	}
	for lo < hi {
		pivot := median3(s[lo], s[lo+(hi-lo)/2], s[hi])
		i, j := lo, hi
		for i <= j {
			// The pivot's value occurs in s[lo..hi], and every swap leaves
			// an element ≥ pivot above i and one ≤ pivot below j, so the
			// scans stop inside the range.
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo..j] ≤ pivot ≤ s[i..hi]; anything in between equals the pivot.
		switch {
		case target <= j:
			hi = j
		case target >= i:
			lo = i
		default:
			return s[target]
		}
	}
	return s[target]
}

func median3(a, b, c float64) float64 {
	if b < a {
		a, b = b, a
	}
	if c < b {
		b = c
	}
	if b < a {
		b = a
	}
	return b
}

// bucketCount is the histogram width per refinement round of the
// bucket-select strategy.
const bucketCount = 1024

// KthLargestBucket returns the k-th largest element (1-based) of x using
// iterative range-refinement with parallel histograms (the CPU analogue of
// GPU bucketSelect). Exact: it terminates by scanning the final bucket.
// x is not modified; all temporaries come from the scratch pools, so the
// steady state allocates nothing beyond goroutine startup.
func KthLargestBucket(x []float64, k int) float64 {
	checkK(len(x), k)

	lo, hi := parMinMax(x)
	if !(lo <= hi) {
		return x[0] // nothing but NaNs
	}
	// remaining = how many of the largest elements we still need to skip
	// inside the current [lo, hi] range.
	remaining := k
	cur := x
	// Two pooled buffers alternate as gather target: cur aliases one while
	// the refinement pass fills the other.
	var hold, spare *[]float64
	defer func() {
		if hold != nil {
			scratch.PutFloat64s(hold)
		}
		if spare != nil {
			scratch.PutFloat64s(spare)
		}
	}()

	for round := 0; ; round++ {
		width := (hi - lo) / bucketCount
		if width <= 0 || len(cur) <= 4096 || round > 64 {
			// Degenerate range or small candidate set: finish exactly.
			return kthLargestScratch(cur, remaining)
		}
		// One division per round instead of one per element: binning
		// multiplies by the reciprocal. Any consistent partition is
		// correct (the k-th element is found by exact scan of the final
		// bucket), so the reciprocal's rounding is harmless as long as
		// the histogram and the gather below share it.
		invWidth := 1 / width
		var hist [bucketCount]int64
		histogram(&hist, cur, lo, invWidth)
		// Walk buckets from the top (largest values) down.
		b := bucketCount - 1
		for ; b >= 0; b-- {
			if int(hist[b]) >= remaining {
				break
			}
			remaining -= int(hist[b])
		}
		if b < 0 {
			// Numerical edge (all counted); fall back.
			return kthLargestScratch(cur, k)
		}
		bLo := lo + float64(b)*width
		bHi := bLo + width
		if b == bucketCount-1 {
			bHi = hi
		}
		// Gather the candidates of bucket b — with the same bucketOf the
		// histogram used, so the gathered count always equals hist[b].
		// Re-testing with range comparisons would disagree with bucketOf
		// at bucket edges (the binning arithmetic rounds differently than
		// the bLo/bHi comparisons), and with heavy ties sitting exactly
		// on an edge the whole counted population could fall outside the
		// range, leaving an empty candidate set while remaining > 0.
		if spare == nil || cap(*spare) < len(cur) {
			if spare != nil {
				scratch.PutFloat64s(spare)
			}
			spare = scratch.Float64s(len(cur))
		}
		gathered := (*spare)[:0]
		for _, v := range cur {
			if bucketOf(v, lo, invWidth) == b {
				gathered = append(gathered, v)
			}
		}
		if len(gathered) == len(cur) || len(gathered) == 0 {
			// No progress (heavy ties) or a numerical edge; finish exactly.
			return kthLargestScratch(cur, remaining)
		}
		*spare = gathered
		cur = gathered
		hold, spare = spare, hold
		lo, hi = bLo, bHi
	}
}

// histogram bins cur into bucketCount buckets starting at lo with bucket
// width 1/invWidth, in parallel. Values above the last bucket edge (the
// maximum) are clamped into the top bucket.
func histogram(hist *[bucketCount]int64, cur []float64, lo, invWidth float64) {
	chunks, size := parallel.Plan(len(cur), 16384)
	if chunks <= 1 {
		for _, v := range cur {
			hist[bucketOf(v, lo, invWidth)]++
		}
		return
	}
	partialb := scratch.Ints(chunks * bucketCount)
	defer scratch.PutInts(partialb)
	partial := *partialb
	for i := range partial {
		partial[i] = 0
	}
	parallel.ForGrain(chunks, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			h := partial[c*bucketCount : (c+1)*bucketCount]
			ilo, ihi := parallel.ChunkBounds(c, size, len(cur))
			for i := ilo; i < ihi; i++ {
				h[bucketOf(cur[i], lo, invWidth)]++
			}
		}
	})
	for c := 0; c < chunks; c++ {
		for b := 0; b < bucketCount; b++ {
			hist[b] += int64(partial[c*bucketCount+b])
		}
	}
}

// bucketOf maps v into [0, bucketCount) for a histogram starting at lo
// with bucket width 1/invWidth, clamping outliers into the end buckets and
// NaN (which ranks lowest) into the bottom one. The clamps run on the
// float: converting NaN or an out-of-range value to int is
// implementation-defined.
func bucketOf(v, lo, invWidth float64) int {
	f := (v - lo) * invWidth
	if !(f >= 0) {
		return 0
	}
	if f >= bucketCount {
		return bucketCount - 1
	}
	return int(f)
}

// parMinMax returns the range of the numbers in x, ignoring NaNs; an
// all-NaN x yields the empty range (+Inf, -Inf).
func parMinMax(x []float64) (lo, hi float64) {
	chunks, size := parallel.Plan(len(x), 16384)
	if chunks <= 1 {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, v := range x {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return lo, hi
	}
	// One pooled buffer holds the per-chunk minima then maxima.
	extb := scratch.Float64s(2 * chunks)
	defer scratch.PutFloat64s(extb)
	los, his := (*extb)[:chunks], (*extb)[chunks:]
	parallel.ForGrain(chunks, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			ilo, ihi := parallel.ChunkBounds(c, size, len(x))
			l, h := math.Inf(1), math.Inf(-1)
			for i := ilo; i < ihi; i++ {
				v := x[i]
				if v < l {
					l = v
				}
				if v > h {
					h = v
				}
			}
			los[c], his[c] = l, h
		}
	})
	lo, hi = los[0], his[0]
	for c := 1; c < chunks; c++ {
		if los[c] < lo {
			lo = los[c]
		}
		if his[c] > hi {
			hi = his[c]
		}
	}
	return lo, hi
}

func checkK(n, k int) {
	if n == 0 {
		panic("topk: empty input")
	}
	if k < 1 || k > n {
		panic("topk: k out of range")
	}
}

// MaskTopK sets exactly k bits in the returned bitmap (length ⌈n/64⌉ words)
// marking the k largest-magnitude entries of x. Ties at the threshold are
// broken by lower index. k == 0 returns an all-zero bitmap; k >= len(x)
// marks everything.
func MaskTopK(x []float64, k int) []uint64 {
	n := len(x)
	bitmap := make([]uint64, (n+63)/64)
	if k <= 0 || n == 0 || k >= n {
		MaskTopKInto(bitmap, x, k)
		return bitmap
	}
	magsb := scratch.Float64s(n)
	defer scratch.PutFloat64s(magsb)
	mags := *magsb
	parallel.For2(n, mags, x, func(mags, x []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			v := x[i]
			if v < 0 {
				v = -v
			}
			mags[i] = v
		}
	})
	MaskTopKInto(bitmap, mags, k)
	return bitmap
}

// MaskTopKInto is the fused selection path: mags must already hold
// non-negative magnitudes (|x|, or |z|² for complex bins — any monotone
// transform works), so selection makes no extra pass to recompute them.
// It zeroes bitmap (length ⌈len(mags)/64⌉ words) and sets exactly
// min(k, len(mags)) bits marking the k largest entries, ties broken by
// lower index. mags is not modified, and the steady state allocates
// nothing.
func MaskTopKInto(bitmap []uint64, mags []float64, k int) {
	n := len(mags)
	if len(bitmap) != (n+63)/64 {
		panic("topk: bitmap length mismatch")
	}
	for i := range bitmap {
		bitmap[i] = 0
	}
	if k <= 0 || n == 0 {
		return
	}
	if k >= n {
		for i := 0; i < n; i++ {
			bitmap[i>>6] |= 1 << (uint(i) & 63)
		}
		return
	}
	thr := KthLargestBucket(mags, k)

	// First pass: everything strictly above the threshold is kept.
	kept := 0
	for i := 0; i < n; i++ {
		if mags[i] > thr {
			bitmap[i>>6] |= 1 << (uint(i) & 63)
			kept++
		}
	}
	// Second pass: fill remaining slots with threshold-equal entries.
	for i := 0; i < n && kept < k; i++ {
		if mags[i] == thr {
			bitmap[i>>6] |= 1 << (uint(i) & 63)
			kept++
		}
	}
}
