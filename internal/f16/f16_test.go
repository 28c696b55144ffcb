package f16

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The format's landmarks, as the tests spell them.
const (
	PositiveInfinity Bits = 0x7C00
	NegativeInfinity Bits = 0xFC00

	MaxValue     = 65504.0                // largest finite binary16 value
	MinNormal    = 6.103515625e-05        // smallest positive normal, 2^-14
	MinSubnormal = 5.9604644775390625e-08 // smallest positive subnormal, 2^-24
)

func TestKnownValues(t *testing.T) {
	cases := []struct {
		f    float32
		bits Bits
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF},             // max finite
		{6.103515625e-05, 0x0400},   // min normal
		{5.9604644775390625e-08, 1}, // min subnormal
		{float32(math.Inf(1)), 0x7C00},
		{float32(math.Inf(-1)), 0xFC00},
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got != c.bits {
			t.Errorf("FromFloat32(%g) = %#04x, want %#04x", c.f, got, c.bits)
		}
		if back := c.bits.Float32(); back != c.f {
			t.Errorf("Bits(%#04x).Float32() = %g, want %g", c.bits, back, c.f)
		}
	}
}

func TestOverflowToInfinity(t *testing.T) {
	if got := FromFloat32(65520); got != PositiveInfinity {
		t.Errorf("65520 should round to +Inf, got %#04x", got)
	}
	if got := FromFloat32(1e30); got != PositiveInfinity {
		t.Errorf("1e30 should overflow to +Inf, got %#04x", got)
	}
	if got := FromFloat32(-1e30); got != NegativeInfinity {
		t.Errorf("-1e30 should overflow to -Inf, got %#04x", got)
	}
}

func TestUnderflowToZero(t *testing.T) {
	tiny := float32(1e-10)
	got := FromFloat32(tiny)
	if got != 0 {
		t.Errorf("1e-10 should underflow to +0, got %#04x", got)
	}
	got = FromFloat32(-tiny)
	if got != 0x8000 {
		t.Errorf("-1e-10 should underflow to -0, got %#04x", got)
	}
}

func TestNaNPreserved(t *testing.T) {
	h := FromFloat32(float32(math.NaN()))
	if !h.IsNaN() {
		t.Fatalf("NaN not preserved: %#04x", h)
	}
	if !math.IsNaN(float64(h.Float32())) {
		t.Fatal("decoded NaN is not NaN")
	}
}

// Every binary16 value must round-trip exactly through float32.
func TestExhaustiveRoundTrip(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		h := Bits(i)
		if h.IsNaN() {
			continue
		}
		f := h.Float32()
		back := FromFloat32(f)
		if back != h {
			t.Fatalf("bits %#04x -> %g -> %#04x", h, f, back)
		}
	}
}

// Rounding property: the conversion must pick the nearest representable
// half; on ties it must pick the even mantissa.
func TestRoundToNearestEven(t *testing.T) {
	// 1.0 + 2^-11 is exactly halfway between 1.0 (0x3C00, even) and the
	// next half 1.0009765625 (0x3C01, odd): must round to even = 0x3C00.
	halfway := float32(1.0) + float32(math.Exp2(-11))
	if got := FromFloat32(halfway); got != 0x3C00 {
		t.Errorf("tie should round to even: got %#04x", got)
	}
	// Just above halfway must round up.
	above := math.Nextafter32(halfway, 2)
	if got := FromFloat32(above); got != 0x3C01 {
		t.Errorf("above tie should round up: got %#04x", got)
	}
	// 1.0 + 3*2^-11 is halfway between 0x3C01 (odd) and 0x3C02 (even):
	// must round to even = 0x3C02.
	halfway2 := float32(1.0) + 3*float32(math.Exp2(-11))
	if got := FromFloat32(halfway2); got != 0x3C02 {
		t.Errorf("tie should round to even: got %#04x", got)
	}
}

// Property: for values inside the normal range, the relative quantization
// error is bounded by 2^-11 (half ULP of a 10-bit mantissa).
func TestQuantizationErrorBound(t *testing.T) {
	f := func(v float32) bool {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
		av := math.Abs(float64(v))
		if av < MinNormal || av > MaxValue {
			return true
		}
		back := float64(FromFloat32(v).Float32())
		rel := math.Abs(back-float64(v)) / av
		return rel <= math.Exp2(-11)
	}
	cfg := &quick.Config{
		MaxCount: 5000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			// Values within the gradient-like range (-8, 8).
			args[0] = reflect.ValueOf(float32(r.NormFloat64()))
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSliceCodecs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	src := make([]float32, 10000)
	for i := range src {
		src[i] = float32(r.NormFloat64())
	}
	enc := EncodeSlice(make([]Bits, len(src)), src)
	dec := DecodeSlice(make([]float32, len(src)), enc)
	for i := range src {
		want := FromFloat32(src[i]).Float32()
		if dec[i] != want {
			t.Fatalf("index %d: got %g want %g", i, dec[i], want)
		}
	}
}

// The paper claims fp16 loss is negligible for bounded gradients: check that
// the RMS error of quantizing N(0, 0.01) data is tiny relative to the RMS of
// the data itself.
func TestGradientLossNegligible(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 100000
	var sumSq, errSq float64
	for i := 0; i < n; i++ {
		g := float32(r.NormFloat64() * 0.01)
		q := FromFloat32(g).Float32()
		sumSq += float64(g) * float64(g)
		d := float64(q - g)
		errSq += d * d
	}
	relRMS := math.Sqrt(errSq / sumSq)
	if relRMS > 1e-3 {
		t.Fatalf("fp16 relative RMS error too large: %g", relRMS)
	}
}

func BenchmarkEncodeSlice(b *testing.B) {
	src := make([]float32, 1<<20)
	for i := range src {
		src[i] = float32(i%1000) * 1e-3
	}
	dst := make([]Bits, len(src))
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeSlice(dst, src)
	}
}

func BenchmarkDecodeSlice(b *testing.B) {
	src := make([]Bits, 1<<20)
	for i := range src {
		src[i] = Bits(i & 0x7BFF)
	}
	dst := make([]float32, len(src))
	b.SetBytes(int64(len(src) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeSlice(dst, src)
	}
}
