package cfft

import (
	"math"
	"math/rand"
	"testing"
)

// naiveDCT2 is the O(n²) DCT-II reference.
func naiveDCT2(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		var acc float64
		for j := 0; j < n; j++ {
			acc += x[j] * math.Cos(math.Pi*float64(2*j+1)*float64(k)/float64(2*n))
		}
		out[k] = acc
	}
	return out
}

// dctForward is ForwardInPlace on a copy of src.
func dctForward(p *DCTPlan, dst, src []float64) {
	work := make([]float64, 2*len(src))
	copy(work, src)
	p.ForwardInPlace(dst, work, make([]complex128, len(src)+1))
}

// dctInverse is Inverse into a fresh signal of length n.
func dctInverse(p *DCTPlan, src []float64) []float64 {
	work := make([]float64, 2*len(src))
	p.Inverse(work, src, make([]complex128, len(src)+1))
	return work[:len(src)]
}

func TestDCTMatchesNaive(t *testing.T) {
	for _, n := range []int{2, 4, 8, 64, 256} {
		r := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		want := naiveDCT2(x)
		got := make([]float64, n)
		dctForward(NewDCTPlan(n), got, x)
		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: %g want %g", n, k, got[k], want[k])
			}
		}
	}
}

func TestDCTRoundTrip(t *testing.T) {
	for _, n := range []int{2, 16, 1024, 1 << 14} {
		r := rand.New(rand.NewSource(int64(n) + 1))
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		p := NewDCTPlan(n)
		c := make([]float64, n)
		dctForward(p, c, x)
		back := dctInverse(p, c)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d sample %d: %g vs %g", n, i, back[i], x[i])
			}
		}
	}
}

func TestDCTConstantSignal(t *testing.T) {
	// DCT-II of a constant c: bin 0 = n·c, all other bins 0.
	n := 32
	x := make([]float64, n)
	for i := range x {
		x[i] = 2.5
	}
	c := make([]float64, n)
	dctForward(NewDCTPlan(n), c, x)
	if math.Abs(c[0]-float64(n)*2.5) > 1e-9 {
		t.Fatalf("DC bin %g want %g", c[0], float64(n)*2.5)
	}
	for k := 1; k < n; k++ {
		if math.Abs(c[k]) > 1e-9 {
			t.Fatalf("bin %d should be 0, got %g", k, c[k])
		}
	}
}

// Energy compaction: on a smooth ramp (no periodicity), the DCT must put
// more energy into its lowest bins than the FFT does — the reason the
// DCT variant is a meaningful ablation for gradient signals.
func TestDCTCompactsRampBetterThanFFT(t *testing.T) {
	n := 256
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i) / float64(n)
	}
	c := make([]float64, n)
	dctForward(NewDCTPlan(n), c, x)
	var dctTotal, dctLow float64
	for k, v := range c {
		e := v * v
		// Parseval weight: the DCT basis is not orthonormal as computed,
		// but the low-bin *fraction* comparison is scale-free.
		dctTotal += e
		if k < n/16 {
			dctLow += e
		}
	}
	cx := make([]complex128, n)
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	X := fft(cx)
	var fftTotal, fftLow float64
	for k := range X {
		e := real(X[k])*real(X[k]) + imag(X[k])*imag(X[k])
		fftTotal += e
		// low bins of the FFT wrap: 0..n/32 and the mirrored tail.
		if k < n/32 || k > n-n/32 {
			fftLow += e
		}
	}
	if dctLow/dctTotal <= fftLow/fftTotal {
		t.Fatalf("DCT low-bin energy share %.4f not above FFT %.4f on a ramp",
			dctLow/dctTotal, fftLow/fftTotal)
	}
}

func TestDCTPanics(t *testing.T) {
	for _, n := range []int{0, 1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d should panic", n)
				}
			}()
			NewDCTPlan(n)
		}()
	}
}

func BenchmarkDCTForward64K(b *testing.B) {
	n := 1 << 16
	p := NewDCTPlan(n)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 97)
	}
	dst := make([]float64, n)
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dctForward(p, dst, x)
	}
}
