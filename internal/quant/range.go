// Package quant implements the paper's range-based variable-precision
// floating-point representation (Sec. 3.2.1, Alg. 1, Fig. 7-9) together
// with the two baselines it is compared against — uniform quantization and
// truncated IEEE-754 — and a bit-stream codec for N-bit codes.
//
// The range-based format encodes a float32 by dropping 23-m mantissa bits
// and storing the result as an offset from pbase (the bit pattern of eps,
// the smallest representable positive magnitude). Because consecutive
// representable values are spaced exponentially (the gap doubles every 2^m
// values), the representable set is dense near zero and sparse near the
// range edges — matching the near-Gaussian distribution of DNN gradients.
package quant

import (
	"fmt"
	"math"

	"fftgrad/internal/parallel"
)

// RangeQuantizer is the offset-based N-bit float of Alg. 1. Codes are
// laid out as:
//
//	0                  → 0.0
//	1 .. P             → positive magnitudes eps .. ~Max (ascending)
//	P+1 .. 2^N-1       → negative magnitudes -eps .. ~Min (descending value)
//
// The zero value is not usable; construct with NewRangeQuantizer or Tune.
type RangeQuantizer struct {
	N   int     // total bits per code, in [2, 24]
	M   int     // mantissa bits kept, in [1, 23]
	Eps float32 // smallest representable positive magnitude
	Min float32 // most negative target value (must be < 0)
	Max float32 // most positive target value (must be > 0)

	shift  uint   // 23 - M
	pbase  uint32 // float32bits(Eps) >> shift
	pcount uint32 // P: number of positive codes
	ncount uint32 // number of negative codes: 2^N - 1 - P
}

// NewRangeQuantizer builds a quantizer with explicit (N, m, eps) and the
// target range [min, max]. min must be < 0 and max > 0 (gradients straddle
// zero). P is derived from max: every positive code up to the code of max
// is positive; the rest are negative.
func NewRangeQuantizer(n, m int, eps, min, max float32) (*RangeQuantizer, error) {
	q := new(RangeQuantizer)
	if why, p := q.set(n, m, eps, min, max); why != 0 {
		return nil, paramError(why, n, m, eps, min, max, p)
	}
	return q, nil
}

// The reasons a parameter set describes no quantizer. set reports one as
// a code and paramError words it, so the tuner's search, which rejects
// candidates by the dozen, never pays for a message.
const (
	badN = iota + 1
	badM
	badRange
	badEps
	epsUnderflow
	maxBelowEps
	tooFewCodes
)

func paramError(why uint8, n, m int, eps, min, max float32, p uint32) error {
	switch why {
	case badN:
		return fmt.Errorf("quant: N=%d out of range [2,24]", n)
	case badM:
		return fmt.Errorf("quant: m=%d out of range [1,23]", m)
	case badRange:
		return fmt.Errorf("quant: range [%g,%g] must straddle zero", min, max)
	case badEps:
		return fmt.Errorf("quant: eps=%g must be in (0, max)", eps)
	case epsUnderflow:
		return fmt.Errorf("quant: eps=%g underflows at m=%d", eps, m)
	case maxBelowEps:
		return fmt.Errorf("quant: max=%g below eps=%g at m=%d", max, eps, m)
	default:
		return fmt.Errorf("quant: N=%d m=%d eps=%g cannot reach max=%g (needs %d positive codes)", n, m, eps, max, p)
	}
}

// set validates the parameters and fills q from them: why is 0 on
// success (p is then the positive code count), and q is unspecified
// otherwise.
func (q *RangeQuantizer) set(n, m int, eps, min, max float32) (why uint8, p uint32) {
	switch {
	case n < 2 || n > 24:
		return badN, 0
	case m < 1 || m > 23:
		return badM, 0
	case !(min < 0 && max > 0):
		return badRange, 0
	case !(eps > 0) || eps >= max:
		return badEps, 0
	}
	*q = RangeQuantizer{N: n, M: m, Min: min, Max: max, shift: uint(23 - m)}
	q.pbase = math.Float32bits(eps) >> q.shift
	// Snap eps to its representable value (code 1) so Decode(Encode(eps))
	// == eps exactly.
	q.Eps = math.Float32frombits(q.pbase << q.shift)
	if !(q.Eps > 0) {
		return epsUnderflow, 0
	}
	keyMax := math.Float32bits(max) >> q.shift
	if keyMax < q.pbase {
		return maxBelowEps, 0
	}
	p = keyMax - q.pbase + 1
	total := uint32(1) << uint(n)
	if p > total-2 {
		return tooFewCodes, p
	}
	q.pcount = p
	q.ncount = total - 1 - p
	return 0, p
}

// P returns the number of positive codes.
func (q *RangeQuantizer) P() int { return int(q.pcount) }

// ActualMin returns the most negative representable value (code 2^N-1),
// the quantity the paper's eps-tuning loop drives toward Min.
func (q *RangeQuantizer) ActualMin() float32 {
	if q.ncount == 0 {
		return 0
	}
	return -math.Float32frombits((q.pbase + q.ncount - 1) << q.shift)
}

// ActualMax returns the largest representable positive value (code P).
func (q *RangeQuantizer) ActualMax() float32 {
	return math.Float32frombits((q.pbase + q.pcount - 1) << q.shift)
}

// Encode maps f to its N-bit code (Alg. 1, 32bit→Nbit): clamp to the
// range, drop mantissa bits, offset by pbase. Where Alg. 1 truncates the
// dropped mantissa bits, we round to the nearest representable value,
// which quarters the expected squared error at no extra cost.
func (q *RangeQuantizer) Encode(f float32) uint32 {
	switch {
	case f != f: // NaN → 0
		return 0
	case f >= q.Eps:
		if f > q.Max {
			f = q.Max
		}
		code := q.magKey(f) - q.pbase + 1
		if code > q.pcount {
			code = q.pcount
		}
		return code
	case f <= -q.Eps:
		if f < q.Min {
			f = q.Min
		}
		code := q.magKey(-f) - q.pbase + 1
		if code > q.ncount {
			code = q.ncount
		}
		return q.pcount + code
	default: // |f| < eps
		return 0
	}
}

// magKey returns the shifted-bits key of the positive magnitude m, rounded
// to the nearest representable key.
func (q *RangeQuantizer) magKey(m float32) uint32 {
	key := math.Float32bits(m) >> q.shift
	low := math.Float32frombits(key << q.shift)
	high := math.Float32frombits((key + 1) << q.shift)
	if float64(m)-float64(low) > float64(high)-float64(m) {
		key++
	}
	return key
}

// Decode maps an N-bit code back to float32 (Alg. 1, Nbit→32bit).
func (q *RangeQuantizer) Decode(code uint32) float32 {
	switch {
	case code == 0:
		return 0
	case code <= q.pcount:
		return math.Float32frombits((q.pbase + code - 1) << q.shift)
	default:
		neg := code - q.pcount
		if neg > q.ncount {
			neg = q.ncount
		}
		return -math.Float32frombits((q.pbase + neg - 1) << q.shift)
	}
}

// EncodeSlice quantizes src into codes in parallel. dst must be at least
// len(src) long; returns dst[:len(src)].
func (q *RangeQuantizer) EncodeSlice(dst []uint32, src []float32) []uint32 {
	dst = dst[:len(src)]
	parallel.For3(len(src), q, dst, src, func(q *RangeQuantizer, dst []uint32, src []float32, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = q.Encode(src[i])
		}
	})
	return dst
}

// DecodeSlice dequantizes codes into dst in parallel. dst must be at least
// len(src) long; returns dst[:len(src)].
func (q *RangeQuantizer) DecodeSlice(dst []float32, src []uint32) []float32 {
	dst = dst[:len(src)]
	parallel.For3(len(src), q, dst, src, func(q *RangeQuantizer, dst []float32, src []uint32, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = q.Decode(src[i])
		}
	})
	return dst
}

// Representable returns every representable value of the quantizer in
// ascending order (2^N values including 0). Used to plot the representable
// distributions of Fig. 7 and Fig. 9. Panics if N > 16 (too many values to
// enumerate usefully).
func (q *RangeQuantizer) Representable() []float32 {
	if q.N > 16 {
		panic("quant: refusing to enumerate > 2^16 representable values")
	}
	total := 1 << uint(q.N)
	vals := make([]float32, 0, total)
	// negatives descending code = most negative first
	for code := uint32(total - 1); code > q.pcount; code-- {
		vals = append(vals, q.Decode(code))
	}
	vals = append(vals, 0)
	for code := uint32(1); code <= q.pcount; code++ {
		vals = append(vals, q.Decode(code))
	}
	return vals
}

// tuneEps binary-searches P (equivalently eps) for a given mantissa width
// so that the most negative representable value lands on min, following
// the paper's iterative eps-adjustment but on integer code counts, which
// converges exactly. ok is false if m cannot cover the range at all.
// Candidates are values: the search allocates nothing.
func tuneEps(n, m int, min, max float32) (best RangeQuantizer, ok bool) {
	shift := uint(23 - m)
	keyMax := math.Float32bits(max) >> shift
	total := uint32(1) << uint(n)

	// actualMin is monotone in P: larger P ⇒ fewer negative codes but each
	// starts from a smaller eps... search for the P whose ActualMin is
	// closest to min, preferring covering (ActualMin <= min).
	lo, hi := uint32(1), total-2
	if keyMax+1 < hi {
		hi = keyMax + 1
	}
	bestScore := math.Inf(1)
	for lo <= hi {
		mid := lo + (hi-lo)/2
		var q RangeQuantizer
		eps := math.Float32frombits((keyMax - mid + 1) << shift)
		if !(eps > 0) {
			// eps underflow: infeasible p; shrink from the top
			hi = mid - 1
			continue
		}
		if why, _ := q.set(n, m, eps, min, max); why != 0 {
			hi = mid - 1
			continue
		}
		am := float64(q.ActualMin())
		score := math.Abs(math.Log(math.Abs(am) / math.Abs(float64(min))))
		if score < bestScore {
			bestScore = score
			best, ok = q, true
		}
		if am < float64(min) {
			// reaches below min ⇒ too many negative codes ⇒ increase P
			lo = mid + 1
		} else if am > float64(min) {
			hi = mid - 1
		} else {
			break
		}
		if lo > hi || mid == lo && mid == hi {
			break
		}
	}
	return best, ok
}

// Tune selects (m, eps) for the given bit width and range by minimizing
// the mean squared quantization error over sample. If sample is empty, a
// synthetic zero-mean Gaussian with σ = max/4 is used, matching the
// empirical gradient distribution of Fig. 4. This implements the paper's
// "we iterate every m to tune for eps" procedure.
func Tune(n int, min, max float32, sample []float32) (*RangeQuantizer, error) {
	q := new(RangeQuantizer)
	if err := TuneInto(q, n, min, max, sample); err != nil {
		return nil, err
	}
	return q, nil
}

// TuneInto is Tune into q, which an error leaves as it was. Candidates
// are values and the decode table lives on the stack, so with a
// non-empty sample a re-tune allocates nothing.
func TuneInto(q *RangeQuantizer, n int, min, max float32, sample []float32) error {
	if !(min < 0 && max > 0) {
		return fmt.Errorf("quant: range [%g,%g] must straddle zero", min, max)
	}
	if len(sample) == 0 {
		sample = gaussianSample(4096, float64(max)/4)
	}
	var best RangeQuantizer
	var table [1 << tableBits]float32
	found := false
	bestMSE := math.Inf(1)
	for m := 1; m <= n-1 && m <= 23; m++ {
		c, ok := tuneEps(n, m, min, max)
		if !ok {
			continue
		}
		mse := sampleMSE(&c, sample, &table)
		if mse < bestMSE {
			bestMSE = mse
			best, found = c, true
		}
	}
	if !found {
		return fmt.Errorf("quant: tuning failed for n=%d range [%g,%g]", n, min, max)
	}
	*q = best
	return nil
}

// sampleMSE is the mean of (Decode(Encode(v)) - v)² over sample, summed
// in sample order: Encode through the branch-free encoder, and Decode
// through table, filled with Decode's values of the codes below 2^N and
// 2^tableBits, for each code it covers.
func sampleMSE(q *RangeQuantizer, sample []float32, table *[1 << tableBits]float32) float64 {
	t := table[:min(len(table), 1<<uint(q.N))]
	for code := range t {
		t[code] = q.Decode(uint32(code))
	}
	e := newEncoder(q)
	var sum float64
	for _, v := range sample {
		code, x := e.code(v), float32(0)
		if int(code) < len(t) {
			x = t[code]
		} else {
			x = q.Decode(code)
		}
		d := float64(x - v)
		sum += d * d
	}
	return sum / float64(len(sample))
}

// gaussianSample returns a deterministic N(0, sigma²) sample (Box-Muller
// over a fixed linear-congruential stream) for tuning without a seed
// dependency on math/rand.
func gaussianSample(n int, sigma float64) []float32 {
	out := make([]float32, n)
	state := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	for i := 0; i < n; i += 2 {
		u1, u2 := next(), next()
		if u1 < 1e-300 {
			u1 = 1e-300
		}
		r := math.Sqrt(-2 * math.Log(u1))
		out[i] = float32(sigma * r * math.Cos(2*math.Pi*u2))
		if i+1 < n {
			out[i+1] = float32(sigma * r * math.Sin(2*math.Pi*u2))
		}
	}
	return out
}
