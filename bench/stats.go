package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// rollingCross returns the first index i (1-based count of samples
// consumed) at which the mean of the last width samples is <= target, or
// 0 when it never is.
func rollingCross(xs []float64, width int, target float64) int {
	sum := 0.0
	for i, v := range xs {
		sum += v
		if i >= width {
			sum -= xs[i-width]
		}
		if i+1 >= width && sum/float64(width) <= target {
			return i + 1
		}
	}
	return 0
}

// quartiles returns the first quartile, median and third quartile with
// the exclusive method of Python's statistics.quantiles(xs, n=4), which
// is what the acceptance rule for this benchmark is written in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(2), at(3)
}

// quietest returns the smallest sum of width consecutive values of xs:
// the stretch of the run the machine disturbed least. NaN when xs is
// shorter than width.
func quietest(xs []float64, width int) float64 {
	if len(xs) < width {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range xs[:width] {
		sum += v
	}
	best := sum
	for i := width; i < len(xs); i++ {
		sum += xs[i] - xs[i-width]
		best = min(best, sum)
	}
	return best
}
