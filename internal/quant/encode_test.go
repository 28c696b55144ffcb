package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fftgrad/internal/parallel"
)

// appendEncodedRef is what AppendEncoded fuses: Encode each value into a
// code slice, then pack the slice.
func appendEncodedRef(q *RangeQuantizer, dst []byte, src []float32) []byte {
	return AppendCodes(dst, q.EncodeSlice(make([]uint32, len(src)), src), q.N)
}

// edgeValues are the inputs where Encode's clamp and round decide: ±0,
// NaN, ±Inf, ±Eps, ±Max, ±Min, the floats either side of each, ±the
// largest float32 and subnormals, and the exact midpoints (and their
// neighbours) between representable values near 1 and near the range
// edges — magKey's ties.
func edgeValues(q *RangeQuantizer) []float32 {
	next := func(f float32, dir float64) float32 { return math.Nextafter32(f, float32(dir)) }
	vs := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -1e-40}
	for _, f := range []float32{q.Eps, q.Max, -q.Min, 1, q.ActualMax(), -q.ActualMin()} {
		for _, v := range []float32{f, next(f, math.Inf(1)), next(f, math.Inf(-1))} {
			vs = append(vs, v, -v)
		}
		if q.shift > 0 { // the midpoint above f's key, and one unit either side
			mid := math.Float32bits(f)>>q.shift<<q.shift | 1<<(q.shift-1)
			for _, b := range []uint32{mid - 1, mid, mid + 1} {
				vs = append(vs, math.Float32frombits(b), -math.Float32frombits(b))
			}
		}
	}
	return vs
}

// edgeQuantizers are, for bit width n, a tuned quantizer and explicit ones
// at the corners set admits: the widest range, a range narrower than Eps
// on the negative side, and mantissa widths 1 and 23.
func edgeQuantizers(t testing.TB, n int) []*RangeQuantizer {
	var qs []*RangeQuantizer
	if q, err := Tune(n, -3.3, 2.1, nil); err == nil {
		qs = append(qs, q)
	}
	for _, p := range []struct {
		m             int
		eps, min, max float32
	}{
		{1, 1e-30, -math.MaxFloat32, math.MaxFloat32},
		{min(n-1, 23), 0.01, -0.001, 4},
		{23, 0.5, -1, 1},
		{1, 1e-20, float32(math.Inf(-1)), float32(math.Inf(1))},
		{3, 1e-40, -2, 1e-39},
	} {
		if q, err := NewRangeQuantizer(n, p.m, p.eps, p.min, p.max); err == nil {
			qs = append(qs, q)
		}
	}
	if len(qs) == 0 {
		t.Fatalf("N=%d: no quantizer", n)
	}
	return qs
}

// TestAppendEncodedMatchesReference: AppendEncoded appends the bytes
// Encode + AppendCodes append, for every N from 2 to 24, every length
// from 0 to 1,000 (multiples of 8 and not), behind a non-empty prefix, on
// edge values mixed into Gaussian ones; then at lengths the worker pool
// splits, on one worker and three.
func TestAppendEncodedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	prefix := []byte{0xA5, 0x5A, 0xFF}
	for n := 2; n <= 24; n++ {
		for qi, q := range edgeQuantizers(t, n) {
			edges := edgeValues(q)
			src := make([]float32, 1000)
			for i := range src {
				if rng.Intn(3) == 0 {
					src[i] = edges[rng.Intn(len(edges))]
				} else {
					src[i] = float32(rng.NormFloat64()) * q.Max
				}
			}
			copy(src, edges)
			for l := 0; l <= len(src); l++ {
				what := fmt.Sprintf("N=%d quantizer %d (m=%d eps=%g range [%g, %g]) length %d", n, qi, q.M, q.Eps, q.Min, q.Max, l)
				got := q.AppendEncoded(append([]byte(nil), prefix...), src[:l])
				want := appendEncodedRef(q, append([]byte(nil), prefix...), src[:l])
				if err := sameBytes(got, want); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
		}
	}
	for _, workers := range []int{1, 3} {
		restore := parallel.SetWorkers(workers)
		for _, n := range []int{3, 10, 24} {
			q := edgeQuantizers(t, n)[0]
			for _, l := range []int{4096, 4097, 50001} {
				src := make([]float32, l)
				for i := range src {
					src[i] = float32(rng.NormFloat64()) * q.Max
				}
				if err := sameBytes(q.AppendEncoded(nil, src), appendEncodedRef(q, nil, src)); err != nil {
					t.Fatalf("N=%d length %d workers=%d: %v", n, l, workers, err)
				}
			}
		}
		parallel.SetWorkers(restore)
	}
}

// TestEncoderMatchesEncode holds the bit-pattern arithmetic to Encode on
// float32 bit patterns across the whole range (every pattern with a
// stride of 257, so every exponent and many mantissas of both signs;
// -short strides 65537) for the edge quantizers of a few widths.
func TestEncoderMatchesEncode(t *testing.T) {
	stride := uint64(257)
	if testing.Short() {
		stride = 65537
	}
	for _, n := range []int{2, 10, 24} {
		for qi, q := range edgeQuantizers(t, n) {
			e := newEncoder(q)
			for b := uint64(0); b < 1<<32; b += stride {
				f := math.Float32frombits(uint32(b))
				if got, want := e.code(f), q.Encode(f); got != want {
					t.Fatalf("N=%d quantizer %d: %v (%#x) encodes to %d, Encode says %d", n, qi, f, uint32(b), got, want)
				}
			}
		}
	}
}

func sameBytes(got, want []byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d bytes, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("byte %d is %#x, reference %#x", i, got[i], want[i])
		}
	}
	return nil
}

// FuzzAppendEncodedMatchesReference is the encode-side twin of the
// compressor's FuzzDecodeMatchesReference: arbitrary bytes read as
// float32s (NaN payloads, subnormals and infinities included) and an
// arbitrary (N, m, eps, range) — any set NewRangeQuantizer accepts — must
// append the bytes Encode + AppendCodes append.
func FuzzAppendEncodedMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint8(10), uint8(4), float32(1e-3), float32(-2), float32(2))
	f.Add([]byte{0, 0, 0xC0, 0x7F, 1, 0, 0x80, 0xFF, 0, 0, 0x80, 0x3F}, uint8(2), uint8(1), float32(0.5), float32(-1), float32(1))
	f.Add(make([]byte, 4*17), uint8(24), uint8(23), float32(1e-38), float32(-math.MaxFloat32), float32(math.MaxFloat32))
	f.Fuzz(func(t *testing.T, data []byte, n, m uint8, eps, lo, hi float32) {
		q, err := NewRangeQuantizer(int(n), int(m), eps, lo, hi)
		if err != nil {
			return
		}
		src := make([]float32, len(data)/4)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		if err := sameBytes(q.AppendEncoded([]byte{1}, src), appendEncodedRef(q, []byte{1}, src)); err != nil {
			t.Fatalf("N=%d m=%d eps=%g range [%g, %g], %d values: %v", n, m, eps, lo, hi, len(src), err)
		}
	})
}

// BenchmarkAppendEncoded times the fused pass against the two passes it
// replaced, at the FFT codec's wide_fft payload: the 78,644 values of
// 39,322 kept bins, 10-bit codes.
func BenchmarkAppendEncoded(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float32, 78644)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	q, err := Tune(10, -4, 4, src[:4096])
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 0, CodeBytes(len(src), q.N))
	codes := make([]uint32, len(src))
	b.Run("fused", func(b *testing.B) {
		b.SetBytes(int64(4 * len(src)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = q.AppendEncoded(dst[:0], src)
		}
	})
	b.Run("encode+pack", func(b *testing.B) {
		b.SetBytes(int64(4 * len(src)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = AppendCodes(dst[:0], q.EncodeSlice(codes, src), q.N)
		}
	})
}
