package topk

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

// fuzzFloats turns fuzz bytes into a selection input. Byte pairs (class,
// value) pick a pattern of numbers — small tie-prone fractions of either
// sign, ±0, ±Inf, NaNs of any payload, powers of two across the whole
// exponent range, subnormals, raw bit patterns — and the pattern is
// repeated to n elements, each repetition's bit patterns step further
// along, so one input holds heavy ties (step 0), near-ties that agree in
// their top digits and values nothing alike. n runs past radixSmall, where
// the radix rounds start.
func fuzzFloats(data []byte) []float64 {
	if len(data) < 4 {
		return nil
	}
	n := 1 + (int(data[0])|int(data[1])<<8)%(radixSmall+2048)
	step := uint64(data[2]) << (data[3] % 56)
	var pat []float64
	for i := 4; i+1 < len(data); i += 2 {
		c, v := data[i], uint64(data[i+1])
		sign := uint64(c>>3&1) << 63
		var b uint64
		switch c & 7 {
		case 0, 1:
			b = math.Float64bits(float64(int8(v)) / 8)
		case 2:
			b = sign
		case 3:
			b = sign | 0x7FF0000000000000
		case 4:
			b = sign | 0x7FF0000000000000 | (v+1)<<(c>>4*3)
		case 5:
			b = sign | (v*8+uint64(c>>4))<<52 // every exponent, mantissa 0
		case 6:
			b = sign | (v + 1) // subnormal
		case 7:
			b = v<<56 | uint64(c)<<48 | v<<20 | uint64(c)
		}
		pat = append(pat, math.Float64frombits(b))
	}
	if len(pat) == 0 {
		pat = []float64{0}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Float64frombits(math.Float64bits(pat[i%len(pat)]) + uint64(i/len(pat))*step)
	}
	return x
}

// FuzzKthLargestMatchesSort holds KthLargestBucket to the sorted order for
// every k: the same bits as KthLargestSort's element, except where sort's
// own order leaves the choice open — any NaN for a NaN, either zero for a
// zero.
func FuzzKthLargestMatchesSort(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0x13, 1, 0, 0, 5, 8, 250, 1, 3, 0, 7}) // 5120 small fractions, an ulp apart
	f.Add([]byte{0xFF, 0x17, 0, 0, 13, 127})                  // 6144 copies of one negative number: no round gains, quickselect
	f.Add([]byte{0xFF, 0x17, 1, 8, 5, 127})                   // one exponent, distinct from bit 8 up: the same
	// 4224 ties under 384 that leave in round two, 1536 of another
	// exponent: round three gains nothing and quickselect takes the ties.
	tied := append([]byte{0xFF, 0x17, 0, 0}, bytes.Repeat([]byte{0x17, 0x20}, 11)...)
	f.Add(append(tied, 0x1F, 0x20, 5, 3, 5, 3, 5, 3, 5, 3))
	f.Add([]byte{0xFF, 0x17, 1, 30, 13, 127, 13, 127, 13, 127, 5, 3})                // three in four negative, two rounds, the walk reversed
	f.Add([]byte{0xFF, 0x13, 3, 2, 2, 0, 10, 0, 3, 0, 11, 0, 4, 9, 12, 200, 0, 100}) // ±0, ±Inf, ±NaN among numbers
	f.Add([]byte{0x10, 0x17, 7, 40, 7, 1, 15, 2, 23, 3, 6, 4, 14, 5, 5, 0, 13, 255}) // raw patterns, subnormals, extremes
	f.Fuzz(func(t *testing.T, data []byte) {
		x := fuzzFloats(data)
		if x == nil {
			return
		}
		in := append([]float64(nil), x...)
		s := append([]float64(nil), x...)
		sort.Float64s(s) // KthLargestSort(x, k) is s[len(s)-k]
		for k := 1; k <= len(x); k++ {
			got, want := KthLargestBucket(x, k), s[len(s)-k]
			if math.Float64bits(got) != math.Float64bits(want) && !(got != got && want != want) && !(got == 0 && want == 0) {
				t.Fatalf("n=%d k=%d: %v (%#x), sort says %v (%#x)", len(x), k, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(in[i]) {
				t.Fatalf("input element %d modified", i)
			}
		}
	})
}
