package cfft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(n²) reference implementation.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var acc complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(j) * float64(k) / float64(n)
			acc += x[j] * complex(math.Cos(ang), math.Sin(ang))
		}
		if inverse {
			acc /= complex(float64(n), 0)
		}
		out[k] = acc
	}
	return out
}

func randComplex(n int, seed int64) []complex128 {
	r := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func maxAbsDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestIsPow2NextPow2(t *testing.T) {
	if !IsPow2(1) || !IsPow2(1024) || IsPow2(0) || IsPow2(3) || IsPow2(-4) {
		t.Fatal("IsPow2 misbehaves")
	}
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 17: 32, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d)=%d want %d", in, got, want)
		}
	}
}

func TestPlanMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randComplex(n, int64(n))
		want := naiveDFT(x, false)
		got := make([]complex128, n)
		NewPlan(n).Forward(got, x)
		if d := maxAbsDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d forward max diff %g", n, d)
		}
	}
}

func TestPlanInverseRoundTrip(t *testing.T) {
	for _, n := range []int{2, 8, 128, 4096, 1 << 16} {
		x := randComplex(n, int64(n)+1)
		p := NewPlan(n)
		f := make([]complex128, n)
		p.Forward(f, x)
		back := make([]complex128, n)
		p.Inverse(back, f)
		if d := maxAbsDiff(back, x); d > 1e-9 {
			t.Errorf("n=%d round-trip max diff %g", n, d)
		}
	}
}

func TestPlanInPlace(t *testing.T) {
	n := 512
	x := randComplex(n, 3)
	want := make([]complex128, n)
	p := NewPlan(n)
	p.Forward(want, x)
	inPlace := append([]complex128(nil), x...)
	p.Forward(inPlace, inPlace)
	if d := maxAbsDiff(inPlace, want); d > 1e-12 {
		t.Errorf("in-place forward differs by %g", d)
	}
}

// fft is the power-of-two complex DFT of x through the shared plan, the
// oracle the real-input and DCT plans are checked against.
func fft(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	PlanFor(len(x)).Forward(out, x)
	return out
}

func TestPlanPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-pow2 plan")
		}
	}()
	NewPlan(12)
}

// Parseval's theorem: Σ|x|² == (1/n)·Σ|X|².
func TestParseval(t *testing.T) {
	for _, n := range []int{64, 128, 1 << 12} {
		x := randComplex(n, int64(n)+300)
		X := fft(x)
		var e1, e2 float64
		for i := range x {
			e1 += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			e2 += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		e2 /= float64(n)
		if math.Abs(e1-e2) > 1e-6*e1 {
			t.Errorf("n=%d Parseval violated: %g vs %g", n, e1, e2)
		}
	}
}

// Linearity: FFT(a·x + y) == a·FFT(x) + FFT(y).
func TestLinearity(t *testing.T) {
	n := 256
	x := randComplex(n, 400)
	y := randComplex(n, 401)
	a := complex(2.5, -1.0)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = a*x[i] + y[i]
	}
	left := fft(sum)
	fx := fft(x)
	fy := fft(y)
	right := make([]complex128, n)
	for i := range right {
		right[i] = a*fx[i] + fy[i]
	}
	if d := maxAbsDiff(left, right); d > 1e-9 {
		t.Errorf("linearity violated by %g", d)
	}
}

// A pure tone must concentrate all energy in a single bin.
func TestPureTone(t *testing.T) {
	n := 128
	k0 := 5
	x := make([]complex128, n)
	for j := range x {
		ang := 2 * math.Pi * float64(k0) * float64(j) / float64(n)
		x[j] = complex(math.Cos(ang), math.Sin(ang))
	}
	X := fft(x)
	for k := range X {
		mag := cmplx.Abs(X[k])
		if k == k0 {
			if math.Abs(mag-float64(n)) > 1e-9 {
				t.Errorf("bin %d magnitude %g want %d", k, mag, n)
			}
		} else if mag > 1e-9 {
			t.Errorf("leakage at bin %d: %g", k, mag)
		}
	}
}

func TestRealPlanMatchesComplex(t *testing.T) {
	for _, n := range []int{2, 4, 16, 256, 4096} {
		r := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, n)
		cx := make([]complex128, n)
		for i := range x {
			x[i] = r.NormFloat64()
			cx[i] = complex(x[i], 0)
		}
		want := fft(cx)
		rp := NewRealPlan(n)
		spec := make([]complex128, rp.SpectrumLen())
		rp.Forward(spec, x)
		for k := 0; k <= n/2; k++ {
			if d := cmplx.Abs(spec[k] - want[k]); d > 1e-9*float64(n) {
				t.Errorf("n=%d bin %d differs by %g", n, k, d)
			}
		}
	}
}

func TestRealPlanRoundTrip(t *testing.T) {
	for _, n := range []int{2, 8, 1024, 1 << 15} {
		r := rand.New(rand.NewSource(int64(n) + 7))
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		rp := NewRealPlan(n)
		spec := make([]complex128, rp.SpectrumLen())
		rp.Forward(spec, x)
		back := make([]float64, n)
		rp.Inverse(back, spec)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d sample %d: %g vs %g", n, i, back[i], x[i])
			}
		}
	}
}

func TestRealPlanHermitianBins(t *testing.T) {
	n := 64
	r := rand.New(rand.NewSource(9))
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	rp := NewRealPlan(n)
	spec := make([]complex128, rp.SpectrumLen())
	rp.Forward(spec, x)
	if imag(spec[0]) != 0 || imag(spec[n/2]) != 0 {
		t.Fatalf("DC/Nyquist bins must be real: %v %v", spec[0], spec[n/2])
	}
}

// TestEmptyInputs: there is no zero-length transform — an empty (or
// one-element) signal pads to two points, and a plan of length 0 is a
// programming error.
func TestEmptyInputs(t *testing.T) {
	if got := PaddedLen(0); got != 2 {
		t.Fatalf("PaddedLen(0) = %d, want 2", got)
	}
	for _, build := range []func(){
		func() { NewPlan(0) }, func() { PlanFor(0) }, func() { NewRealPlan(0) }, func() { NewDCTPlan(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for a zero-length plan")
				}
			}()
			build()
		}()
	}
}

func BenchmarkForward1M(b *testing.B) {
	n := 1 << 20
	p := NewPlan(n)
	x := randComplex(n, 1)
	dst := make([]complex128, n)
	b.SetBytes(int64(n * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(dst, x)
	}
}

func BenchmarkRealForward1M(b *testing.B) {
	n := 1 << 20
	rp := NewRealPlan(n)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%100) * 0.01
	}
	spec := make([]complex128, rp.SpectrumLen())
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp.Forward(spec, x)
	}
}
