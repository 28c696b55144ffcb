// Package f16 implements IEEE-754 binary16 ("half precision") conversion in
// software.
//
// The paper's compression pipeline converts full-precision (binary32)
// gradients to half precision before the FFT, because half-precision FFT
// roughly doubles throughput on recent GPUs and the information loss is
// negligible for bounded gradients (Sec. 3.1.1). This package provides the
// same conversion on the CPU with round-to-nearest-even semantics, matching
// hardware behaviour, so that the end-to-end reconstruction error measured
// by the experiments includes the fp16 step exactly as in the paper.
package f16

import (
	"math"

	"fftgrad/internal/parallel"
)

// Bits is a raw IEEE-754 binary16 value: 1 sign bit, 5 exponent bits,
// 10 mantissa bits.
type Bits uint16

const (
	signMask16 = 0x8000
	expMask16  = 0x7C00
	manMask16  = 0x03FF
)

// FromFloat32 converts a float32 to binary16 with round-to-nearest-even,
// the IEEE-754 default rounding mode and the mode used by GPU f32→f16
// conversion instructions.
func FromFloat32(f float32) Bits {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & signMask16
	exp := int32(b>>23) & 0xFF
	man := b & 0x7FFFFF

	switch {
	case exp == 0xFF: // Inf or NaN
		if man != 0 {
			// Preserve a quiet NaN; keep the top mantissa bit set.
			return Bits(sign | expMask16 | 0x0200 | uint16(man>>13))
		}
		return Bits(sign | expMask16)
	case exp == 0 && man == 0: // signed zero
		return Bits(sign)
	}

	// Unbiased exponent of the float32 value.
	e := exp - 127
	switch {
	case e > 15: // overflow to infinity
		return Bits(sign | expMask16)
	case e >= -14: // normal binary16
		// 10 mantissa bits survive; round-to-nearest-even on the 13
		// discarded bits.
		halfExp := uint16(e+15) << 10
		halfMan := uint16(man >> 13)
		round := man & 0x1FFF
		v := sign | halfExp | halfMan
		if round > 0x1000 || (round == 0x1000 && halfMan&1 == 1) {
			v++ // carry may roll into the exponent; that is correct
		}
		return Bits(v)
	case e >= -24: // subnormal binary16
		// Implicit leading 1 becomes explicit. The binary16 subnormal
		// value is halfMan·2^-24, so halfMan = (1.man)·2^(e+24-23+...)
		// = man32 >> (-e-1) with -e-1 in [14, 23].
		man |= 0x800000
		shift := uint(-e - 1)
		halfMan := uint16(man >> shift)
		dropped := man & (1<<shift - 1)
		halfway := uint32(1) << (shift - 1)
		v := sign | halfMan
		if dropped > halfway || (dropped == halfway && halfMan&1 == 1) {
			v++
		}
		return Bits(v)
	default: // underflow to signed zero
		return Bits(sign)
	}
}

// Float32 converts a binary16 value back to float32 exactly (every binary16
// value is representable in binary32).
func (h Bits) Float32() float32 {
	sign := uint32(h&signMask16) << 16
	exp := uint32(h&expMask16) >> 10
	man := uint32(h & manMask16)

	switch exp {
	case 0:
		if man == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal: value = man * 2^-24. Normalize into binary32.
		e := uint32(127 - 15 + 1)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= manMask16
		return math.Float32frombits(sign | e<<23 | man<<13)
	case 0x1F:
		if man == 0 {
			return math.Float32frombits(sign | 0xFF<<23) // infinity
		}
		return math.Float32frombits(sign | 0xFF<<23 | man<<13 | 1<<22) // NaN
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | man<<13)
	}
}

// IsNaN reports whether h encodes a NaN.
func (h Bits) IsNaN() bool {
	return h&expMask16 == expMask16 && h&manMask16 != 0
}

// encodeBits is the branch-free equivalent of FromFloat32, operating on
// the raw float32 bit pattern. Every format class (normal, subnormal,
// underflow, overflow, Inf, NaN payload) is computed unconditionally and
// the right one selected with sign-extension masks, so the bulk loop has
// no data-dependent branches for the hardware to mispredict on mixed
// gradients. Bit-for-bit equivalent to FromFloat32 (the property tests
// pin this across every class boundary).
func encodeBits(b uint32) Bits {
	sign := uint16(b>>16) & signMask16
	x := b & 0x7FFFFFFF
	e := int32(x >> 23)

	// Class masks: all-ones when the condition holds (arithmetic shift of
	// a negative int32).
	isSub := uint32((e - 113) >> 31)                  // |v| below the smallest normal half
	isTiny := uint32((e - 103) >> 31)                 // |v| too small even for a subnormal
	isBig := uint32((142 - e) >> 31)                  // |v| at least 2^16, or Inf
	isNaN := uint32(int32(0x7F800000-int32(x)) >> 31) // NaN of any payload

	// Normal path: rebias the exponent by subtracting (127-15)<<23, then
	// round-to-nearest-even on the 13 dropped bits by adding 0xFFF plus
	// the result's LSB before shifting. A mantissa carry rolls into the
	// exponent and, at e=142, correctly on to infinity.
	nval := (x - 112<<23 + 0xFFF + (x >> 13 & 1)) >> 13

	// Subnormal path: make the implicit leading 1 explicit and shift it
	// down to weight 2^-24, rounding the same way. For out-of-class
	// exponents shift is huge; Go defines oversized shifts as 0, so the
	// value is garbage but fully masked out below.
	man := b&0x7FFFFF | 0x800000
	shift := uint32(126 - e)
	sval := (man + 1<<(shift-1) - 1 + (man >> shift & 1)) >> shift

	v := nval&^isSub | sval&isSub
	v &^= isTiny
	v = v&^isBig | expMask16&isBig
	v = v&^isNaN | (expMask16|0x0200|x>>13&manMask16)&isNaN
	return Bits(sign | uint16(v)&0x7FFF)
}

// decodeBits is the branch-free equivalent of Bits.Float32. The exponent
// rebias (including subnormal normalization, which the scalar path does
// with a loop) is delegated to the FPU: reinterpreting the half's
// magnitude bits as a tiny float32 and multiplying by 2^112 is exact for
// every finite input, because scaling by a power of two only touches the
// exponent and float32 subnormals renormalize in hardware. Inf/NaN would
// come out finite (2^16·1.m), so their exponent and quiet bits are OR-ed
// back in under masks.
func decodeBits(h Bits) float32 {
	sign := uint32(h&signMask16) << 16
	em := uint32(h &^ signMask16)
	f := math.Float32frombits(em<<13) * math.Float32frombits(0x77800000) // ×2^112
	b := math.Float32bits(f) | sign
	isInf := uint32(int32(0x7BFF-int32(em)) >> 31) // em ≥ 0x7C00: Inf or NaN
	isNaN := uint32(int32(0x7C00-int32(em)) >> 31) // em > 0x7C00: NaN
	return math.Float32frombits(b | 0xFF<<23&isInf | 1<<22&isNaN)
}

// EncodeSlice converts src to binary16, writing into dst (which must be at
// least len(src) long), in parallel via the branch-free bulk kernel. It
// returns dst[:len(src)].
func EncodeSlice(dst []Bits, src []float32) []Bits {
	dst = dst[:len(src)]
	parallel.For2(len(src), dst, src, func(dst []Bits, src []float32, lo, hi int) {
		// Re-slice to the chunk and anchor dst's length to src's so the
		// compiler drops both per-element bounds checks from the hot loop.
		src = src[lo:hi]
		dst = dst[lo:hi][:len(src)]
		for i, v := range src {
			dst[i] = encodeBits(math.Float32bits(v))
		}
	})
	return dst
}

// DecodeSlice converts binary16 values back to float32 in parallel via
// the branch-free bulk kernel. dst must be at least len(src) long; it
// returns dst[:len(src)].
func DecodeSlice(dst []float32, src []Bits) []float32 {
	dst = dst[:len(src)]
	parallel.For2(len(src), dst, src, func(dst []float32, src []Bits, lo, hi int) {
		src = src[lo:hi]
		dst = dst[lo:hi][:len(src)]
		for i, h := range src {
			dst[i] = decodeBits(h)
		}
	})
	return dst
}

// roundBits returns the float32 bit pattern of the binary16 value a
// float32 with bit pattern b converts to: decodeBits(encodeBits(b)) in one
// step, without forming the 16-bit code. It is the kernel of the
// pipeline's "convert to half before the FFT" step, where only the
// rounded value is needed.
//
//   - Normal halves keep 10 mantissa bits: round-to-nearest-even on the 13
//     dropped bits is an integer add and a mask on the float32 pattern
//     itself; a carry that reaches 2^16 is infinity.
//   - Subnormal halves are the multiples of 2^-24, which is exactly
//     float32's spacing in [0.5, 1): (f + 0.5) - 0.5 lets the FPU round to
//     it, ties to even included.
//   - |v| < 2^-24 goes to signed zero, as FromFloat32 and encodeBits send
//     it (IEEE round-to-nearest would take (2^-25, 2^-24) up to 2^-24;
//     DESIGN.md Sec. 10.3 records the deviation and why it stays).
//   - NaN keeps the payload bits binary16 has room for, quiet bit set.
//
// Every class is computed and the right one selected, so mixed-magnitude
// gradients cost no mispredicted branches.
func roundBits(b uint32) uint32 {
	x := b & 0x7FFFFFFF
	r := (x + 0xFFF + x>>13&1) &^ 0x1FFF
	if r >= 0x47800000 { // 2^16 and up, Inf included
		r = 0x7F800000
	}
	if x > 0x7F800000 {
		r = 0x7FC00000 | x&0x007FE000
	}
	sub := math.Float32bits(math.Float32frombits(x) + 0.5 - 0.5)
	if x < 0x33800000 { // below 2^-24
		sub = 0
	}
	if x < 0x38800000 { // below 2^-14, the smallest normal half
		r = sub
	}
	return r | b&0x80000000
}

// roundWidenVec, where a platform file sets it (round_amd64.go: AVX2),
// is RoundWiden over the leading whole groups of eight elements, in vector
// instructions that produce roundBits' bits; it returns how many elements
// it converted. The Go loop is the reference and the only path elsewhere
// and under -tags purego.
var roundWidenVec func(dst []float64, src []float32) int

// RoundWiden writes every element of src, rounded to the nearest binary16
// value, to dst as a float64: the half-precision conversion and the
// widening the float64 transform needs, in one pass. dst must be at least
// len(src) long.
func RoundWiden(dst []float64, src []float32) {
	dst = dst[:len(src)]
	if roundWidenVec != nil {
		n := roundWidenVec(dst, src)
		dst, src = dst[n:], src[n:]
	}
	for i, v := range src {
		dst[i] = float64(math.Float32frombits(roundBits(math.Float32bits(v))))
	}
}
