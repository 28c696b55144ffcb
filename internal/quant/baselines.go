package quant

import (
	"fmt"
	"math"
)

// Quantizer is the common interface of all N-bit scalar quantizers in this
// package: encode a float32 into an N-bit code and back.
type Quantizer interface {
	// Encode maps a value to its code in [0, 2^N).
	Encode(f float32) uint32
	// Decode maps a code back to its representative value.
	Decode(code uint32) float32
	// Representable lists every representable value in ascending order.
	Representable() []float32
}

var (
	_ Quantizer = (*RangeQuantizer)(nil)
	_ Quantizer = (*UniformQuantizer)(nil)
	_ Quantizer = (*TruncIEEEQuantizer)(nil)
)

// UniformQuantizer divides [Min, Max] into 2^N - 1 equal steps — the
// "conventional way" of Fig. 7. Its representable values are evenly
// spaced, wasting precision in the tails where gradients rarely fall and
// starving the dense region near zero.
type UniformQuantizer struct {
	N        int
	Min, Max float32
	step     float64
}

// NewUniformQuantizer builds a uniform quantizer over [min, max].
func NewUniformQuantizer(n int, min, max float32) (*UniformQuantizer, error) {
	if n < 1 || n > 24 {
		return nil, fmt.Errorf("quant: N=%d out of range [1,24]", n)
	}
	if !(min < max) {
		return nil, fmt.Errorf("quant: bad range [%g,%g]", min, max)
	}
	levels := float64(uint32(1)<<uint(n)) - 1
	return &UniformQuantizer{N: n, Min: min, Max: max, step: (float64(max) - float64(min)) / levels}, nil
}

// Encode rounds f to the nearest level.
func (q *UniformQuantizer) Encode(f float32) uint32 {
	if f != f {
		return 0
	}
	if f < q.Min {
		f = q.Min
	}
	if f > q.Max {
		f = q.Max
	}
	return uint32(math.Round((float64(f) - float64(q.Min)) / q.step))
}

// Decode returns the level value for a code.
func (q *UniformQuantizer) Decode(code uint32) float32 {
	max := uint32(1)<<uint(q.N) - 1
	if code > max {
		code = max
	}
	return float32(float64(q.Min) + float64(code)*q.step)
}

// Representable lists all 2^N level values in ascending order.
func (q *UniformQuantizer) Representable() []float32 {
	if q.N > 16 {
		panic("quant: refusing to enumerate > 2^16 representable values")
	}
	total := 1 << uint(q.N)
	vals := make([]float32, total)
	for c := 0; c < total; c++ {
		vals[c] = q.Decode(uint32(c))
	}
	return vals
}

// TruncIEEEQuantizer keeps the top N bits of the IEEE-754 binary32 pattern
// (sign + leading exponent/mantissa bits) — the "N-bit IEEE 754 format" of
// Fig. 7. Its representable range stays the full float32 range
// [-3.4e38, 3.4e38], so only a tiny fraction of codes land inside the
// gradient range: the mismatch the range-based format fixes.
type TruncIEEEQuantizer struct {
	N     int
	shift uint
}

// NewTruncIEEEQuantizer builds the truncated-IEEE baseline.
func NewTruncIEEEQuantizer(n int) (*TruncIEEEQuantizer, error) {
	if n < 2 || n > 31 {
		return nil, fmt.Errorf("quant: N=%d out of range [2,31]", n)
	}
	return &TruncIEEEQuantizer{N: n, shift: uint(32 - n)}, nil
}

// Encode truncates the float32 bit pattern to its top N bits.
func (q *TruncIEEEQuantizer) Encode(f float32) uint32 {
	return math.Float32bits(f) >> q.shift
}

// Decode re-expands the code by zero-filling the dropped low bits.
func (q *TruncIEEEQuantizer) Decode(code uint32) float32 {
	return math.Float32frombits(code << q.shift)
}

// Representable lists the finite representable values in ascending order.
func (q *TruncIEEEQuantizer) Representable() []float32 {
	if q.N > 16 {
		panic("quant: refusing to enumerate > 2^16 representable values")
	}
	total := 1 << uint(q.N)
	half := total / 2
	vals := make([]float32, 0, total)
	// negative codes descending bit pattern = ascending value
	for c := total - 1; c >= half; c-- {
		v := q.Decode(uint32(c))
		if !math.IsInf(float64(v), 0) && v == v {
			vals = append(vals, v)
		}
	}
	for c := 0; c < half; c++ {
		v := q.Decode(uint32(c))
		if !math.IsInf(float64(v), 0) && v == v {
			vals = append(vals, v)
		}
	}
	return vals
}
