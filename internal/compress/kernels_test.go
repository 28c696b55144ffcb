package compress

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The active fold against the Go reference on raw bits, NaN payloads
// included. Where the build has only the reference (no assembly for the
// platform, or -tags purego) they compare it with itself and pass
// trivially.

// foldSpecials are the operands where a vector fold could part from the
// scalar one: signed zeros, subnormals, the largest finite values (whose
// sums overflow to ±Inf), infinities, quiet and signalling NaNs with
// distinct payloads of both signs, and two plain normals.
var foldSpecials = []uint32{
	0x00000000, 0x80000000, 0x00000001, 0x807fffff,
	0x7f7fffff, 0xff7fffff, 0x7f800000, 0xff800000,
	0x7fc00001, 0xffc12345, 0x7f800003, 0xffa00000,
	0x3fc00000, 0xc0100000,
}

// foldOperand draws a float32 that is special half of the time.
func foldOperand(rng *rand.Rand) float32 {
	if rng.Intn(2) == 0 {
		return math.Float32frombits(foldSpecials[rng.Intn(len(foldSpecials))])
	}
	return float32(rng.NormFloat64() * math.Exp2(float64(rng.Intn(60)-30)))
}

// foldInputs builds a running sum and a message of n values: every pair
// of specials first (NaN meets NaN with both payloads in both orders),
// then random operands.
func foldInputs(rng *rand.Rand, n int) (dst, x []float32) {
	dst, x = make([]float32, n), make([]float32, n)
	for i := range dst {
		if k := len(foldSpecials); i < k*k {
			dst[i], x[i] = math.Float32frombits(foldSpecials[i/k]), math.Float32frombits(foldSpecials[i%k])
			continue
		}
		dst[i], x[i] = foldOperand(rng), foldOperand(rng)
	}
	return dst, x
}

// foldPairs are (wt, scale) pairs the exchange uses — the plain sum, a
// stale damping with the final 1/Σwt, a bank share — and ones that do not
// round, plus a NaN weight and scale against the operands' own NaNs.
var foldPairs = []fold{
	{1, 1}, {0.5, 1}, {float32(math.Pow(0.9, 3)), 1.0 / 3}, {1, 1.0 / 3}, {0.25, 0.5}, {1, 0},
	{math.Float32frombits(0x7fc0beef), 1}, {1, math.Float32frombits(0xffc0cafe)},
}

// checkFold runs body on the active and the reference kernel from the
// same start and compares every element's bits.
func checkFold(t *testing.T, what string, dst0 []float32, body func(k kernels, dst []float32)) {
	t.Helper()
	got, want := append([]float32(nil), dst0...), append([]float32(nil), dst0...)
	body(active, got)
	body(scalar, want)
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s element %d (sum %#x): %#x, reference %#x", what, i, math.Float32bits(dst0[i]), g, w)
		}
	}
}

// TestFoldMatchesReference: both fold kernels at every length 0–67 (the
// vector body, its tail, and both) and at the wide_* gradient's length,
// over whole and offset ranges, with the message at every offset modulo 4
// inside its buffer for the wire form.
func TestFoldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	lengths := []int{476032}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		dst0, x := foldInputs(rng, n)
		ranges := [][2]int{{0, n}}
		if n > 5 {
			ranges = append(ranges, [2]int{3, n - 2})
		}
		for _, f := range foldPairs {
			for _, r := range ranges {
				what := fmt.Sprintf("n=%d %+v range %v", n, f, r)
				checkFold(t, what, dst0, func(k kernels, dst []float32) { k.fold(dst, x, f, r[0], r[1]) })
				for off := 0; off < 4; off++ {
					buf := make([]byte, off, off+4*n)
					msg := appendFP32Bits(buf, x)[off:]
					checkFold(t, fmt.Sprintf("%s wire offset %d", what, off), dst0,
						func(k kernels, dst []float32) { k.foldWire(dst, msg, f, r[0], r[1]) })
				}
			}
		}
	}
}

// appendFP32Bits appends x in wire order by the byte loop alone.
func appendFP32Bits(buf []byte, x []float32) []byte {
	for _, v := range x {
		buf = le.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

// FuzzFoldMatchesReference: both fold kernels against the reference on
// arbitrary bit patterns for the sum, the message, the weight and the
// scale, with the message at any offset modulo 4.
func FuzzFoldMatchesReference(f *testing.F) {
	seed := make([]byte, 0, 8*len(foldSpecials)*len(foldSpecials))
	for _, a := range foldSpecials {
		for _, b := range foldSpecials {
			seed = le.AppendUint32(le.AppendUint32(seed, a), b)
		}
	}
	f.Add(seed, uint32(0x3f000000), uint32(0x3eaaaaab), uint8(1))
	f.Add(seed[:8*19], uint32(0x3f800000), uint32(0x3f800000), uint8(0))
	f.Add(seed[:8*8], uint32(0x7fc00007), uint32(0xffc00009), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, wt, scale uint32, off uint8) {
		n := len(data) / 8
		dst0, x := make([]float32, n), make([]float32, n)
		for i := range dst0 {
			dst0[i] = math.Float32frombits(le.Uint32(data[8*i:]))
			x[i] = math.Float32frombits(le.Uint32(data[8*i+4:]))
		}
		fd := fold{math.Float32frombits(wt), math.Float32frombits(scale)}
		o := int(off % 4)
		msg := appendFP32Bits(make([]byte, o, o+4*n), x)[o:]
		checkFold(t, "fold", dst0, func(k kernels, dst []float32) { k.fold(dst, x, fd, 0, n) })
		checkFold(t, "wire fold", dst0, func(k kernels, dst []float32) { k.foldWire(dst, msg, fd, 0, n) })
	})
}

// BenchmarkFold times each fold alone at the wide_* gradient's length, Go
// reference against the active set (run with -cpu 1: a kernel is kept
// only where it beats its reference). The wire form reads its message one
// byte off alignment, as behind a guard frame header.
func BenchmarkFold(b *testing.B) {
	const n = 476032
	rng := rand.New(rand.NewSource(1))
	dst, x := make([]float32, n), make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	msg := appendFP32Bits(make([]byte, 1, 1+4*n), x)[1:]
	for _, k := range []struct {
		name string
		set  kernels
	}{{"go", scalar}, {"active", active}} {
		b.Run(k.name+"/slice", func(b *testing.B) {
			b.SetBytes(12 * n)
			for i := 0; i < b.N; i++ {
				k.set.fold(dst, x, fold{0.5, 1}, 0, n)
			}
		})
		b.Run(k.name+"/wire", func(b *testing.B) {
			b.SetBytes(12 * n)
			for i := 0; i < b.N; i++ {
				k.set.foldWire(dst, msg, fold{0.5, 1}, 0, n)
			}
		})
	}
}
