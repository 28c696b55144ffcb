package compress

import (
	"math"
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

// smoothGrad has the spatial correlation real DNN gradients show, which
// the FFT method exploits.
func smoothGrad(n int, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	x := make([]float32, n)
	v := 0.0
	for i := range x {
		v = 0.97*v + 0.03*r.NormFloat64()
		x[i] = float32(0.1*v + 0.002*r.NormFloat64())
	}
	return x
}

func relErr(a, b []float32) float64 {
	var num, den float64
	for i := range a {
		d := float64(a[i] - b[i])
		num += d * d
		den += float64(a[i]) * float64(a[i])
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

func roundtrip(t *testing.T, c Compressor, grad []float32) []float32 {
	t.Helper()
	msg, err := c.AppendCompress(nil, grad)
	if err != nil {
		t.Fatalf("%s compress: %v", c.Name(), err)
	}
	dst := make([]float32, len(grad))
	if err := c.DecompressInto(dst, msg); err != nil {
		t.Fatalf("%s decompress: %v", c.Name(), err)
	}
	return dst
}

func allCompressors() []Compressor {
	return []Compressor{
		FP32{},
		NewTopK(0.85),
		NewQSGD(3),
		NewTernGrad(),
		NewFFT(0.85),
	}
}

func TestFP32Lossless(t *testing.T) {
	g := gaussGrad(10001, 0.1, 1)
	rec := roundtrip(t, FP32{}, g)
	for i := range g {
		if rec[i] != g[i] {
			t.Fatalf("fp32 must be lossless, index %d: %g vs %g", i, rec[i], g[i])
		}
	}
	msg, _ := FP32{}.AppendCompress(nil, g)
	if r := Ratio(len(g), msg); r != 1 {
		t.Fatalf("fp32 ratio %g want 1", r)
	}
}

func TestAllCompressorsRoundTripShape(t *testing.T) {
	for _, c := range allCompressors() {
		for _, n := range []int{0, 1, 2, 64, 1000, 65537} {
			g := smoothGrad(n, int64(n))
			rec := roundtrip(t, c, g)
			if len(rec) != n {
				t.Fatalf("%s: bad output length", c.Name())
			}
			for i, v := range rec {
				if v != v || math.IsInf(float64(v), 0) {
					t.Fatalf("%s n=%d: non-finite output at %d", c.Name(), n, i)
				}
			}
		}
	}
}

func TestAllCompressorsZeroGradient(t *testing.T) {
	for _, c := range allCompressors() {
		g := make([]float32, 1000)
		rec := roundtrip(t, c, g)
		for i, v := range rec {
			if v != 0 {
				t.Fatalf("%s: zero gradient reconstructed non-zero %g at %d", c.Name(), v, i)
			}
		}
	}
}

func TestDecompressLengthMismatch(t *testing.T) {
	for _, c := range allCompressors() {
		g := gaussGrad(100, 0.1, 2)
		msg, err := c.AppendCompress(nil, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.DecompressInto(make([]float32, 99), msg); err == nil {
			t.Errorf("%s: length mismatch should error", c.Name())
		}
	}
}

func TestDecompressTruncatedMessage(t *testing.T) {
	for _, c := range allCompressors() {
		g := gaussGrad(1000, 0.1, 3)
		msg, err := c.AppendCompress(nil, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{0, 2, len(msg) / 2} {
			if err := c.DecompressInto(make([]float32, 1000), msg[:cut]); err == nil {
				t.Errorf("%s: truncated message (%d bytes) should error", c.Name(), cut)
			}
		}
	}
}

func TestCompressionRatios(t *testing.T) {
	n := 1 << 20
	g := smoothGrad(n, 5)
	want := map[string][2]float64{ // [min, max] acceptable ratio bands
		"fp32":     {1, 1},
		"topk":     {5, 7},       // 1/(1-0.85)=6.67 minus bitmap overhead
		"qsgd":     {10, 11},     // 32/3 ≈ 10.67
		"terngrad": {15.5, 16.5}, // 32/2 = 16
		"fft":      {13, 22},     // 6.67 × 32/10 = 21.3 minus bitmap overhead
	}
	for _, c := range allCompressors() {
		msg, err := c.AppendCompress(nil, g)
		if err != nil {
			t.Fatal(err)
		}
		r := Ratio(n, msg)
		band := want[c.Name()]
		if r < band[0] || r > band[1] {
			t.Errorf("%s ratio %.2f outside [%g, %g]", c.Name(), r, band[0], band[1])
		}
	}
}

// Fig. 15 / Fig. LABEL:recon_error: at the evaluation settings, FFT must
// reconstruct correlated gradients with lower error than Top-k, QSGD and
// TernGrad.
func TestFFTLowestReconstructionError(t *testing.T) {
	g := smoothGrad(1<<16, 7)
	errs := map[string]float64{}
	for _, c := range allCompressors() {
		rec := roundtrip(t, c, g)
		errs[c.Name()] = relErr(g, rec)
	}
	if errs["fft"] >= errs["topk"] {
		t.Errorf("fft err %.4f not below topk %.4f", errs["fft"], errs["topk"])
	}
	if errs["fft"] >= errs["qsgd"] {
		t.Errorf("fft err %.4f not below qsgd %.4f", errs["fft"], errs["qsgd"])
	}
	if errs["fft"] >= errs["terngrad"] {
		t.Errorf("fft err %.4f not below terngrad %.4f", errs["fft"], errs["terngrad"])
	}
	if errs["fp32"] != 0 {
		t.Errorf("fp32 err %g want 0", errs["fp32"])
	}
}

// QSGD is unbiased in expectation: the mean of many stochastic encodings
// must approach the true value.
func TestQSGDUnbiased(t *testing.T) {
	g := []float32{0.5, -0.3, 0.1, 0, -0.7, 0.25, -0.05, 0.9}
	c := NewQSGD(3)
	sum := make([]float64, len(g))
	const trials = 3000
	for tr := 0; tr < trials; tr++ {
		msg, err := c.AppendCompress(nil, g)
		if err != nil {
			t.Fatal(err)
		}
		rec := make([]float32, len(g))
		if err := c.DecompressInto(rec, msg); err != nil {
			t.Fatal(err)
		}
		for i, v := range rec {
			sum[i] += float64(v)
		}
	}
	for i, v := range g {
		mean := sum[i] / trials
		if math.Abs(mean-float64(v)) > 0.03 {
			t.Errorf("index %d: mean %g want %g", i, mean, v)
		}
	}
}

// TernGrad is unbiased in expectation too.
func TestTernGradUnbiased(t *testing.T) {
	g := []float32{0.5, -0.3, 0.1, 0, -0.7}
	c := NewTernGrad()
	sum := make([]float64, len(g))
	const trials = 5000
	for tr := 0; tr < trials; tr++ {
		msg, err := c.AppendCompress(nil, g)
		if err != nil {
			t.Fatal(err)
		}
		rec := make([]float32, len(g))
		if err := c.DecompressInto(rec, msg); err != nil {
			t.Fatal(err)
		}
		for i, v := range rec {
			sum[i] += float64(v)
		}
	}
	for i, v := range g {
		mean := sum[i] / trials
		if math.Abs(mean-float64(v)) > 0.04 {
			t.Errorf("index %d: mean %g want %g", i, mean, v)
		}
	}
}

// TernGrad output values must be exactly {-scale, 0, +scale}.
func TestTernGradTernary(t *testing.T) {
	g := gaussGrad(5000, 0.1, 11)
	var scale float32
	for _, v := range g {
		if a := float32(math.Abs(float64(v))); a > scale {
			scale = a
		}
	}
	rec := roundtrip(t, NewTernGrad(), g)
	for i, v := range rec {
		if v != 0 && v != scale && v != -scale {
			t.Fatalf("index %d: %g not ternary (scale %g)", i, v, scale)
		}
	}
}

// QSGD output must land on the 2s+1 level grid.
func TestQSGDLevels(t *testing.T) {
	g := gaussGrad(5000, 0.1, 12)
	var norm float64
	for _, v := range g {
		norm += float64(v) * float64(v)
	}
	norm = math.Sqrt(norm)
	rec := roundtrip(t, NewQSGD(3), g)
	for i, v := range rec {
		lvl := float64(v) / norm * 3
		if math.Abs(lvl-math.Round(lvl)) > 1e-5 {
			t.Fatalf("index %d: %g not on level grid", i, v)
		}
	}
}

// Top-k reconstruction keeps exactly the top elements and zeroes the rest.
func TestTopKReconstruction(t *testing.T) {
	g := gaussGrad(10000, 0.1, 13)
	rec := roundtrip(t, NewTopK(0.9), g)
	nonzero := 0
	for i, v := range rec {
		if v != 0 {
			nonzero++
			if v != g[i] {
				t.Fatalf("kept value altered at %d: %g vs %g", i, v, g[i])
			}
		}
	}
	if nonzero != 1000 {
		t.Fatalf("kept %d values, want 1000", nonzero)
	}
}

// Changing θ via the ThetaSetter interface must change behaviour.
func TestThetaSetter(t *testing.T) {
	g := smoothGrad(8192, 14)
	for _, c := range []Compressor{NewTopK(0.9), NewFFT(0.9)} {
		ts, ok := c.(ThetaSetter)
		if !ok {
			t.Fatalf("%s must implement ThetaSetter", c.Name())
		}
		msgHigh, err := c.AppendCompress(nil, g)
		if err != nil {
			t.Fatal(err)
		}
		ts.SetTheta(0.1)
		msgLow, err := c.AppendCompress(nil, g)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgLow) <= len(msgHigh) {
			t.Errorf("%s: lower θ must produce a larger message (%d vs %d)", c.Name(), len(msgLow), len(msgHigh))
		}
		recHigh := make([]float32, len(g))
		recLow := make([]float32, len(g))
		if err := c.DecompressInto(recLow, msgLow); err != nil {
			t.Fatal(err)
		}
		ts.SetTheta(0.9) // decompress must not depend on current θ
		if err := c.DecompressInto(recHigh, msgHigh); err != nil {
			t.Fatal(err)
		}
		if relErr(g, recLow) >= relErr(g, recHigh) {
			t.Errorf("%s: θ=0.1 error %g not below θ=0.9 error %g",
				c.Name(), relErr(g, recLow), relErr(g, recHigh))
		}
	}
}

// θ=1 must not crash: everything dropped, reconstruction is zero.
func TestFullDrop(t *testing.T) {
	g := smoothGrad(4096, 15)
	for _, c := range []Compressor{NewTopK(1), NewFFT(1)} {
		rec := roundtrip(t, c, g)
		for i, v := range rec {
			if v != 0 {
				t.Fatalf("%s θ=1: non-zero %g at %d", c.Name(), v, i)
			}
		}
	}
}

// The FFT compressor must preserve the gradient *distribution*: its
// reconstruction has (almost) no exact zeros, while Top-k zeroes θ of all
// entries — the qualitative content of Fig. 15.
func TestFFTPreservesDistributionTopKDoesNot(t *testing.T) {
	g := smoothGrad(1<<14, 16)
	fftRec := roundtrip(t, NewFFT(0.85), g)
	topkRec := roundtrip(t, NewTopK(0.85), g)
	countZeros := func(x []float32) int {
		z := 0
		for _, v := range x {
			if v == 0 {
				z++
			}
		}
		return z
	}
	if z := countZeros(fftRec); z > len(g)/100 {
		t.Errorf("fft reconstruction has %d exact zeros", z)
	}
	if z := countZeros(topkRec); z < len(g)*8/10 {
		t.Errorf("topk reconstruction has only %d zeros", z)
	}
}

// fp16 pre-conversion must cost almost nothing in accuracy (Sec. 3.1.1).
func TestFFTHalfConversionNegligible(t *testing.T) {
	g := smoothGrad(1<<14, 18)
	withHalf := NewFFT(0.85)
	noHalf := NewFFT(0.85)
	noHalf.UseHalf = false
	e1 := relErr(g, roundtrip(t, withHalf, g))
	e2 := relErr(g, roundtrip(t, noHalf, g))
	if e1 > e2*1.05+1e-4 {
		t.Fatalf("fp16 conversion should be negligible: %g vs %g", e1, e2)
	}
}

func BenchmarkCompressFFT1M(b *testing.B)      { benchCompress(b, NewFFT(0.85)) }
func BenchmarkCompressTopK1M(b *testing.B)     { benchCompress(b, NewTopK(0.85)) }
func BenchmarkCompressQSGD1M(b *testing.B)     { benchCompress(b, NewQSGD(3)) }
func BenchmarkCompressTernGrad1M(b *testing.B) { benchCompress(b, NewTernGrad()) }
func BenchmarkCompressFP321M(b *testing.B)     { benchCompress(b, FP32{}) }

func benchCompress(b *testing.B, c Compressor) {
	g := smoothGrad(1<<20, 1)
	b.SetBytes(int64(len(g) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.AppendCompress(nil, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressFFT1M(b *testing.B) {
	g := smoothGrad(1<<20, 1)
	c := NewFFT(0.85)
	msg, err := c.AppendCompress(nil, g)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float32, len(g))
	b.SetBytes(int64(len(g) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.DecompressInto(dst, msg); err != nil {
			b.Fatal(err)
		}
	}
}
