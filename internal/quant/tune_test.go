package quant

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// quantMSE is Tune's scoring before sampleMSE, kept verbatim as its
// reference: Decode(Encode(v)) per sample value.
func quantMSE(q *RangeQuantizer, sample []float32) float64 {
	var sum float64
	for _, v := range sample {
		d := float64(q.Decode(q.Encode(v)) - v)
		sum += d * d
	}
	return sum / float64(len(sample))
}

// tuneRef is Tune's search scored by quantMSE.
func tuneRef(n int, lo, hi float32, sample []float32) (RangeQuantizer, bool) {
	var best RangeQuantizer
	found := false
	bestMSE := math.Inf(1)
	for m := 1; m <= min(n-1, 23); m++ {
		c, ok := tuneEps(n, m, lo, hi)
		if !ok {
			continue
		}
		if mse := quantMSE(&c, sample); mse < bestMSE {
			bestMSE = mse
			best, found = c, true
		}
	}
	return best, found
}

// checkTune compares every candidate's score with quantMSE's, bit for
// bit (a NaN score, which never wins, with any NaN: which operand's
// payload an add keeps is the compiler's choice), and TuneInto's winner
// with tuneRef's.
func checkTune(t *testing.T, n int, lo, hi float32, sample []float32) {
	t.Helper()
	var table [1 << tableBits]float32
	for m := 1; m <= min(n-1, 23); m++ {
		c, ok := tuneEps(n, m, lo, hi)
		if !ok {
			continue
		}
		got, want := sampleMSE(&c, sample, &table), quantMSE(&c, sample)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("N=%d m=%d range [%g, %g], %d values: score %v, want %v", n, m, lo, hi, len(sample), got, want)
		}
	}
	want, ok := tuneRef(n, lo, hi, sample)
	var got RangeQuantizer
	if err := TuneInto(&got, n, lo, hi, sample); (err == nil) != ok {
		t.Fatalf("N=%d range [%g, %g]: TuneInto error %v, reference found %v", n, lo, hi, err, ok)
	}
	if got != want {
		t.Fatalf("N=%d range [%g, %g]: TuneInto chose %+v, reference %+v", n, lo, hi, got, want)
	}
}

// TestTuneMatchesReference: at the widths the codec runs (and one past
// the table), over Gaussian samples of several scales and ranges around
// them with the winner's edge values mixed in, the fast scoring picks
// what Decode(Encode(v)) scoring picked.
func TestTuneMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 8, 10, 12, 14} {
		for _, scale := range []float64{1e-6, 1e-2, 1, 300} {
			for _, stretch := range []float64{0.5, 1.001, 3} {
				sample := make([]float32, 4096)
				for i := range sample {
					sample[i] = float32(rng.NormFloat64() * scale)
				}
				lim := float32(4 * scale * stretch)
				if q, ok := tuneRef(n, -lim, lim, sample); ok {
					// Its finite edges: a NaN or an infinity scores every
					// candidate NaN or +Inf, and then nothing wins.
					for _, v := range edgeValues(&q) {
						if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
							sample = append(sample, v)
						}
					}
				}
				checkTune(t, n, -lim, lim, sample)
				checkTune(t, n, -lim/3, lim, sample)
			}
		}
	}
}

// FuzzTuneMatchesReference: arbitrary bytes read as float32s (NaN
// payloads, subnormals and infinities included), a width from {4, 8, 10,
// 12} and an arbitrary range.
func FuzzTuneMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3F, 0, 0, 0x80, 0xBF}, uint8(2), float32(-2), float32(2))
	f.Add([]byte{0, 0, 0xC0, 0x7F, 1, 0, 0x80, 0xFF, 0xCD, 0xCC, 0x4C, 0x3E}, uint8(0), float32(-1e-3), float32(5))
	f.Add(make([]byte, 4*17), uint8(3), float32(-math.MaxFloat32), float32(math.MaxFloat32))
	f.Fuzz(func(t *testing.T, data []byte, width uint8, lo, hi float32) {
		if len(data) < 4 {
			return
		}
		sample := make([]float32, len(data)/4)
		for i := range sample {
			sample[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkTune(t, []int{4, 8, 10, 12}[width%4], lo, hi, sample)
	})
}

// BenchmarkTune times one re-tune at the codec's shape: 10-bit codes,
// its 4096-value sample.
func BenchmarkTune(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sample := make([]float32, 4096)
	for i := range sample {
		sample[i] = float32(rng.NormFloat64())
	}
	var q RangeQuantizer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := TuneInto(&q, 10, -4, 4, sample); err != nil {
			b.Fatal(err)
		}
	}
}
