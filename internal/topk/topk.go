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
//   - KthLargestBucket: radix select on the IEEE bit pattern — a histogram
//     of twelve key bits a round, recursing into the bucket containing the
//     k-th element. Cost independent of the value range.
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
	return kthLargestCopy(x, nil, k)
}

// kthLargestCopy runs quickselect on a copy of x in cand, or in a pooled
// copy when cand is nil.
func kthLargestCopy(x, cand []float64, k int) float64 {
	if cand == nil {
		sb := scratch.Float64s(len(x))
		defer scratch.PutFloat64s(sb)
		cand = *sb
	}
	s := cand[:len(x)]
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

// The radix select reads a float64's bit pattern twelve bits a round:
// 4096 buckets, the first round exactly the sign and exponent.
const (
	radixBits  = 12
	radixMask  = 1<<radixBits - 1
	radixSmall = 4096 // candidates at or below this go to quickselect
)

// KthLargestBucket returns the k-th largest element (1-based) of x by
// radix select on the IEEE bit pattern (Alabi et al.'s radixSelect, the
// sibling of the bucketSelect the paper cites): a histogram of sign and
// exponent finds the bucket holding the k-th element, its members are
// gathered, and the next twelve mantissa bits split them again until few
// enough remain for quickselect. Digits are read off the raw pattern and
// the buckets walked in value order — exponents down for positive
// numbers, then up for negative ones — so there is no range scan, no
// float binning and no per-element key: the cost does not depend on the
// data's dynamic range, and the result is exact. x is not modified; the
// candidates live in one pooled buffer, so the steady state allocates
// nothing.
func KthLargestBucket(x []float64, k int) float64 {
	checkK(len(x), k)
	return kthLargestBucket(x, nil, k)
}

// KthLargestBucketInto is KthLargestBucket with the candidates in cand,
// which must hold len(x) values and is overwritten: a caller that owns a
// spare array of that size borrows nothing from the pools.
func KthLargestBucketInto(x, cand []float64, k int) float64 {
	checkK(len(x), k)
	if len(cand) < len(x) {
		panic("topk: candidate buffer shorter than input")
	}
	return kthLargestBucket(x, cand[:len(x)], k)
}

// kthLargestBucket is the radix select, gathering into cand, or into a
// pooled buffer when cand is nil.
func kthLargestBucket(x, cand []float64, k int) float64 {
	var candb *[]float64
	// A gathered candidate is stored shifted left past the digits already
	// resolved (prefix holds those), so every round's digit is the top
	// twelve bits. flip turns a bucket's rank from the bottom into its raw
	// digit: the sign bit at first, then all of it for negative numbers.
	cur, prefix, used, flip := x, uint64(0), 0, 1<<(radixBits-1)
	for ; used+radixBits <= 64 && len(cur) > radixSmall; used += radixBits {
		var hist [4][1 << radixBits]uint32
		radixCount(&hist, cur)
		if used == 0 {
			// Inf and NaN share an exponent and NaN ranks below every
			// number, not beside Inf: such an input goes to quickselect.
			const top = radixMask >> 1
			for t := range hist {
				if hist[t][top] != 0 || hist[t][top|1<<(radixBits-1)] != 0 {
					return kthLargestCopy(x, cand, k)
				}
			}
		}
		// Walk buckets from the top (largest values) down to the k-th's.
		raw, cnt := 0, 0
		for d := radixMask; ; d-- {
			raw = d ^ flip
			if used == 0 && d < 1<<(radixBits-1) {
				raw = d ^ radixMask // the negative half of the first round
			}
			cnt = int(hist[0][raw] + hist[1][raw] + hist[2][raw] + hist[3][raw])
			if cnt >= k {
				break
			}
			k -= cnt
		}
		if cnt == len(cur) {
			// No progress: every candidate shares this digit (a run of ties,
			// mostly). Quickselect halves those; more rounds would not.
			break
		}
		if used == 0 {
			flip = -(raw >> (radixBits - 1)) & radixMask
			if cand == nil {
				candb = scratch.Float64s(cnt + 1)
				cand = *candb
			}
		}
		// From the second round on the gather compacts cur onto itself.
		radixGather(cand[:cnt+1], cur, uint64(raw))
		cur, prefix = cand[:cnt], prefix<<radixBits|uint64(raw)
	}
	if used == 0 {
		return kthLargestCopy(x, cand, k)
	}
	for i, v := range cur {
		cur[i] = math.Float64frombits(prefix<<(64-used) | math.Float64bits(v)>>used)
	}
	kth := kthLargestInPlace(cur, k)
	scratch.PutFloat64s(candb)
	return kth
}

// radixCount adds the top digit of every element of cur to hist. Four
// tables, elements dealt round-robin: a spectrum's magnitudes share some
// forty exponents, and consecutive increments of one counter would each
// wait for the last one's store.
func radixCount(hist *[4][1 << radixBits]uint32, cur []float64) {
	i := 0
	for ; i+4 <= len(cur); i += 4 {
		hist[0][math.Float64bits(cur[i])>>(64-radixBits)]++
		hist[1][math.Float64bits(cur[i+1])>>(64-radixBits)]++
		hist[2][math.Float64bits(cur[i+2])>>(64-radixBits)]++
		hist[3][math.Float64bits(cur[i+3])>>(64-radixBits)]++
	}
	for ; i < len(cur); i++ {
		hist[0][math.Float64bits(cur[i])>>(64-radixBits)]++
	}
}

// radixGather copies the elements of cur whose top digit is raw to the
// front of out, shifted left past that digit. Every element is stored and
// the cursor advances only past members, so the loop has no branch to
// mispredict; out has one slot more than members to take the overshoot,
// and may be cur's own memory.
func radixGather(out, cur []float64, raw uint64) {
	j := 0
	for _, v := range cur {
		b := math.Float64bits(v)
		out[j] = math.Float64frombits(b << radixBits)
		j += int(((b>>(64-radixBits) ^ raw) - 1) >> 63)
	}
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
