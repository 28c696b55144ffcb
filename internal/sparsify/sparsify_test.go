package sparsify

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

func gaussGrad(n int, sigma float64, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(r.NormFloat64() * sigma)
	}
	return x
}

// smoothGrad returns a gradient-like signal with spatial correlation, the
// kind of structure the FFT exploits.
func smoothGrad(n int, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	x := make([]float32, n)
	v := 0.0
	for i := range x {
		v = 0.97*v + 0.03*r.NormFloat64()
		x[i] = float32(v + 0.02*r.NormFloat64())
	}
	return x
}

func l2(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i] - b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

func norm(a []float32) float64 {
	var s float64
	for _, v := range a {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

func TestKeepCount(t *testing.T) {
	cases := []struct {
		total int
		theta float64
		want  int
	}{
		{100, 0, 100},
		{100, 1, 0},
		{100, 0.9, 10},
		{100, 0.85, 15},
		{100, 0.999, 1},
		{10, 0.5, 5},
		{3, 0.5, 2}, // ceil(1.5)
	}
	for _, c := range cases {
		if got := KeepCount(c.total, c.theta); got != c.want {
			t.Errorf("KeepCount(%d, %g)=%d want %d", c.total, c.theta, got, c.want)
		}
	}
}

func TestTopKSpatialZeroesExactly(t *testing.T) {
	x := gaussGrad(10000, 0.1, 1)
	orig := append([]float32(nil), x...)
	mask := TopKSpatial(x, 0.9)
	kept := 0
	for _, w := range mask {
		kept += bits.OnesCount64(w)
	}
	if kept != 1000 {
		t.Fatalf("kept %d want 1000", kept)
	}
	nonzero := 0
	for i := range x {
		if x[i] != 0 {
			nonzero++
			if x[i] != orig[i] {
				t.Fatalf("kept value altered at %d", i)
			}
		}
	}
	// A Gaussian sample can contain exact zeros only with probability ~0,
	// so every kept position is non-zero.
	if nonzero != 1000 {
		t.Fatalf("nonzero %d want 1000", nonzero)
	}
}

func TestTopKSpatialKeepsLargest(t *testing.T) {
	x := []float32{0.01, -9, 0.02, 5, -0.03, 3, 0.04, -1}
	TopKSpatial(x, 0.5) // keep 4
	wantKept := map[int]bool{1: true, 3: true, 5: true, 7: true}
	for i, v := range x {
		if wantKept[i] && v == 0 {
			t.Errorf("index %d should be kept", i)
		}
		if !wantKept[i] && v != 0 {
			t.Errorf("index %d should be dropped, has %g", i, v)
		}
	}
}

func TestFFTRoundtripLossless(t *testing.T) {
	// θ=0: nothing dropped, reconstruction must be near-exact.
	for _, n := range []int{2, 100, 1024, 5000} {
		x := gaussGrad(n, 0.1, int64(n))
		y := FFT.Roundtrip(x, 0)
		if rel := l2(x, y) / norm(x); rel > 1e-6 {
			t.Fatalf("n=%d lossless roundtrip rel err %g", n, rel)
		}
	}
}

func TestFFTSpectrumShape(t *testing.T) {
	x := gaussGrad(1000, 0.1, 3)
	spec := new(Spectrum)
	FFT.Analyze(spec, x, 0.9, nil)
	if spec.L != 1000 || spec.N != 1024 {
		t.Fatalf("shape: L=%d N=%d", spec.L, spec.N)
	}
	if FFT.Bins(spec.N) != 513 {
		t.Fatalf("bins=%d want 513", FFT.Bins(spec.N))
	}
	if spec.Kept != KeepCount(513, 0.9) {
		t.Fatalf("kept=%d", spec.Kept)
	}
	// Once zeroDropped has run every unmasked bin must be zero; masked
	// bins count must match Kept.
	FFT.zeroDropped(spec)
	masked := 0
	for i, b := range spec.cbins {
		on := spec.Mask[i>>6]&(1<<(uint(i)&63)) != 0
		if on {
			masked++
		} else if b != 0 {
			t.Fatalf("dropped bin %d not zeroed: %v", i, b)
		}
	}
	if masked != spec.Kept {
		t.Fatalf("mask popcount %d != kept %d", masked, spec.Kept)
	}
}

func TestFFTKeepsHighestEnergyBins(t *testing.T) {
	// Signal = strong low-frequency tone + weak high-frequency tone.
	n := 1024
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(math.Sin(2*math.Pi*3*float64(i)/float64(n)) +
			0.01*math.Sin(2*math.Pi*200*float64(i)/float64(n)))
	}
	spec := new(Spectrum)
	FFT.Analyze(spec, x, 0.99, nil) // keep ~6 bins
	// Bin 3 (the strong tone) must survive.
	if spec.Mask[3>>6]&(1<<3) == 0 {
		t.Fatal("dominant bin 3 dropped")
	}
	y := make([]float32, n)
	FFT.zeroDropped(spec) // Analyze leaves dropped bins as transformed
	FFT.inverse(y, spec, nil, nil)
	// Reconstruction must capture the strong tone: >90% energy retained.
	if rel := l2(x, y) / norm(x); rel > 0.3 {
		t.Fatalf("reconstruction error too high: %g", rel)
	}
}

// The core claim of Fig. 5: for spatially-correlated gradients at equal θ,
// FFT-domain top-k reconstructs with lower L2 error than spatial top-k.
func TestFFTBeatsSpatialOnCorrelatedSignal(t *testing.T) {
	theta := 0.85
	var fftErr, topkErr float64
	for seed := int64(0); seed < 5; seed++ {
		x := smoothGrad(4096, seed)
		y := FFT.Roundtrip(x, theta)
		fftErr += l2(x, y) / norm(x)

		sp := append([]float32(nil), x...)
		TopKSpatial(sp, theta)
		topkErr += l2(x, sp) / norm(x)
	}
	if fftErr >= topkErr {
		t.Fatalf("FFT err %g not better than top-k err %g on correlated signal", fftErr, topkErr)
	}
}

// Distribution preservation (Fig. 5/15): after FFT sparsification the
// reconstruction keeps near-zero components (non-zero everywhere), while
// spatial top-k zeroes 85% of entries exactly.
func TestFFTPreservesDistribution(t *testing.T) {
	x := smoothGrad(4096, 9)
	y := FFT.Roundtrip(x, 0.85)
	zeros := 0
	for _, v := range y {
		if v == 0 {
			zeros++
		}
	}
	if zeros > len(y)/100 {
		t.Fatalf("FFT reconstruction has %d exact zeros; distribution collapsed", zeros)
	}
	sp := append([]float32(nil), x...)
	TopKSpatial(sp, 0.85)
	zeros = 0
	for _, v := range sp {
		if v == 0 {
			zeros++
		}
	}
	if zeros < len(sp)*8/10 {
		t.Fatalf("top-k should zero ~85%% of entries, zeroed %d/%d", zeros, len(sp))
	}
}

// Monotonicity: more aggressive θ ⇒ at least as much reconstruction error.
func TestErrorMonotoneInTheta(t *testing.T) {
	x := smoothGrad(2048, 4)
	prev := -1.0
	for _, theta := range []float64{0.1, 0.5, 0.9, 0.99} {
		y := FFT.Roundtrip(x, theta)
		e := l2(x, y)
		if e < prev-1e-9 {
			t.Fatalf("error decreased from %g to %g at θ=%g", prev, e, theta)
		}
		prev = e
	}
}

// TestAnalyzeErrors: analysis is total — lengths 0 and 1 pad to a 2-point
// transform like cfft.PaddedLen says — and synthesis rejects, never
// panics on, a destination or a decoded spectrum of the wrong shape.
func TestAnalyzeErrors(t *testing.T) {
	for _, tr := range transforms {
		for _, x := range [][]float32{{}, {1}} {
			y := tr.t.Roundtrip(x, 0)
			if len(y) != len(x) || (len(x) == 1 && math.Abs(float64(y[0]-x[0])) > 1e-6) {
				t.Fatalf("%s: length-%d gradient round-tripped to %v", tr.name, len(x), y)
			}
		}
		spec := new(Spectrum)
		tr.t.Analyze(spec, gaussGrad(100, 1, 1), 0.5, nil)
		if err := tr.t.Synthesize(make([]float32, 99), spec, nil); err == nil {
			t.Fatalf("%s: wrong dst length should error", tr.name)
		}
		dst := make([]float32, 100)
		if err := tr.t.Synthesize(dst, spec, nil); err != nil {
			t.Fatalf("%s: synthesis of an analyzed spectrum: %v", tr.name, err)
		}
		spec.Mask[0] ^= 1 // popcount no longer equals Kept
		if err := tr.t.Synthesize(dst, spec, nil); err == nil {
			t.Fatalf("%s: popcount != kept should error", tr.name)
		}
		spec.Mask[0] ^= 1
		spec.Vals = spec.Vals[:len(spec.Vals)-1]
		if err := tr.t.Synthesize(dst, spec, nil); err == nil {
			t.Fatalf("%s: short value vector should error", tr.name)
		}
		for _, n := range []int{0, 1, 96, 64} { // not a power of two >= max(L, 2)
			spec.N = n
			if err := tr.t.Synthesize(dst, spec, nil); err == nil {
				t.Fatalf("%s: padded length %d should error", tr.name, n)
			}
		}
	}
}

func TestSchedules(t *testing.T) {
	c := Const(0.85)
	if c.Theta(0) != 0.85 || c.Theta(100) != 0.85 {
		t.Fatal("Const schedule broken")
	}
	s := StepDrop{Initial: 0.9, Final: 0, DropEpoch: 30}
	if s.Theta(29) != 0.9 || s.Theta(30) != 0 || s.Theta(31) != 0 {
		t.Fatal("StepDrop schedule broken")
	}
	lr := func(epoch int) float64 {
		if epoch < 30 {
			return 0.01
		}
		return 0.001
	}
	lc := LRCoupled{L: 10, LR: lr, Cap: 0.95}
	// θ = sqrt(10·0.01) = 0.316..., then sqrt(10·0.001) = 0.1
	if got := lc.Theta(0); math.Abs(got-math.Sqrt(0.1)) > 1e-12 {
		t.Fatalf("LRCoupled early θ = %g", got)
	}
	if got := lc.Theta(30); math.Abs(got-math.Sqrt(0.01)) > 1e-12 {
		t.Fatalf("LRCoupled late θ = %g", got)
	}
	// Cap applies.
	hc := LRCoupled{L: 1000, LR: lr, Cap: 0.95}
	if got := hc.Theta(0); got != 0.95 {
		t.Fatalf("cap not applied: %g", got)
	}
}

func BenchmarkFFTAnalyze1M(b *testing.B) {
	x := gaussGrad(1<<20, 0.1, 1)
	b.SetBytes(int64(len(x) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT.Analyze(new(Spectrum), x, 0.85, nil)
	}
}

func BenchmarkTopKSpatial1M(b *testing.B) {
	x := gaussGrad(1<<20, 0.1, 1)
	work := make([]float32, len(x))
	b.SetBytes(int64(len(x) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, x)
		TopKSpatial(work, 0.85)
	}
}
