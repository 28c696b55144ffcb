package compress

import (
	"math"
	"testing"
)

func TestDCTRoundTripShape(t *testing.T) {
	c := NewDCT(0.85)
	for _, n := range []int{0, 1, 2, 64, 1000, 65537} {
		g := smoothGrad(n, int64(n))
		rec := roundtrip(t, c, g)
		for i, v := range rec {
			if v != v || math.IsInf(float64(v), 0) {
				t.Fatalf("n=%d non-finite at %d", n, i)
			}
		}
	}
}

func TestDCTZeroAndFullDrop(t *testing.T) {
	c := NewDCT(1)
	rec := roundtrip(t, c, smoothGrad(1000, 1))
	for i, v := range rec {
		if v != 0 {
			t.Fatalf("θ=1 should decode zeros, got %g at %d", v, i)
		}
	}
	rec = roundtrip(t, NewDCT(0.5), make([]float32, 1000))
	for i, v := range rec {
		if v != 0 {
			t.Fatalf("zero gradient decoded %g at %d", v, i)
		}
	}
}

func TestDCTLengthAndTruncationErrors(t *testing.T) {
	c := NewDCT(0.85)
	g := smoothGrad(500, 2)
	msg, err := c.AppendCompress(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DecompressInto(make([]float32, 400), msg); err == nil {
		t.Fatal("length mismatch should error")
	}
	if err := c.DecompressInto(make([]float32, 500), msg[:10]); err == nil {
		t.Fatal("truncated message should error")
	}
}

// Ablation accounting: at equal θ the DCT keeps the same number of real
// values as the FFT (n real bins vs n/2 complex pairs) but its bitmap
// covers twice the bins, so its ratio lands a predictable notch BELOW the
// FFT's — between 70% and 100% of it (≈12.8 vs 16 at the paper settings).
func TestDCTRatioAccounting(t *testing.T) {
	g := smoothGrad(1<<18, 3)
	fftc := NewFFT(0.85)
	dctc := NewDCT(0.85)
	fmsg, err := fftc.AppendCompress(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	dmsg, err := dctc.AppendCompress(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	fr, dr := Ratio(len(g), fmsg), Ratio(len(g), dmsg)
	if dr < fr*0.7 || dr > fr {
		t.Fatalf("dct ratio %.1f outside the expected [0.7, 1.0]x band of fft %.1f", dr, fr)
	}
}

// At equal θ, DCT reconstruction error must be in the same band as FFT
// (same pipeline, comparable energy compaction on correlated signals).
func TestDCTErrorComparableToFFT(t *testing.T) {
	g := smoothGrad(1<<15, 4)
	fftRec := roundtrip(t, NewFFT(0.85), g)
	dctRec := roundtrip(t, NewDCT(0.85), g)
	fe, de := relErr(g, fftRec), relErr(g, dctRec)
	if de > fe*1.5 {
		t.Fatalf("dct err %.4f far above fft %.4f at equal θ", de, fe)
	}
}

func TestDCTThetaSetter(t *testing.T) {
	c := NewDCT(0.9)
	var _ ThetaSetter = c
	g := smoothGrad(8192, 5)
	hi, err := c.AppendCompress(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTheta(0.1)
	lo, err := c.AppendCompress(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(lo) <= len(hi) {
		t.Fatalf("lower θ must grow the message: %d vs %d", len(lo), len(hi))
	}
}

func BenchmarkCompressDCT1M(b *testing.B) { benchCompress(b, NewDCT(0.85)) }
