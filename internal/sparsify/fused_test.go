package sparsify

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fftgrad/internal/cfft"
	"fftgrad/internal/topk"
)

// analyzeReference is the unfused analysis the fused sweep replaced,
// written once for both transforms: forward transform, magnitudes,
// topk.MaskTopKInto, a pass zeroing the dropped bins, then a
// mask-directed gather of the survivors and their max |value| — each a
// full pass over the bins.
func analyzeReference(t *Transform, spec *Spectrum, x []float32, theta float64) {
	l := len(x)
	n := cfft.PaddedLen(l)
	nb := t.Bins(n)
	sig := make([]float64, 2*n) // the DCT works in place over 2n
	widenF32(sig, x, 0, l)
	mags := make([]float64, nb)
	if t.real {
		spec.rbins = make([]float64, nb)
		cfft.DCTPlanFor(n).ForwardInPlace(spec.rbins, sig, make([]complex128, n+1))
		magsReal(mags, spec.rbins, 0, nb)
	} else {
		spec.cbins = make([]complex128, nb)
		cfft.RealPlanFor(n).Forward(spec.cbins, sig[:n])
		magsComplex(mags, spec.cbins, 0, nb)
	}
	spec.L, spec.N, spec.Kept = l, n, KeepCount(nb, theta)
	spec.Mask = make([]uint64, (nb+63)/64)
	topk.MaskTopKInto(spec.Mask, mags, spec.Kept)
	for i := 0; i < nb; i++ {
		if spec.Mask[i>>6]&(1<<(uint(i)&63)) != 0 {
			continue
		}
		if t.real {
			spec.rbins[i] = 0
		} else {
			spec.cbins[i] = 0
		}
	}
	spec.Vals, spec.AbsMax = nil, 0
	for i := 0; i < nb; i++ {
		if spec.Mask[i>>6]&(1<<(uint(i)&63)) == 0 {
			continue
		}
		if t.real {
			spec.Vals = append(spec.Vals, float32(spec.rbins[i]))
		} else {
			spec.Vals = append(spec.Vals, float32(real(spec.cbins[i])), float32(imag(spec.cbins[i])))
		}
	}
	for _, v := range spec.Vals {
		spec.AbsMax = math.Max(spec.AbsMax, math.Abs(float64(v)))
	}
}

// transforms is the table dimension every per-transform test ranges over.
var transforms = []struct {
	name string
	t    *Transform
}{{"fft", FFT}, {"dct", DCT}}

// sameSpectrum compares two spectra bit for bit: shape, mask words, dense
// coefficients, packed values in order, AbsMax.
func sameSpectrum(got, want *Spectrum) error {
	if got.L != want.L || got.N != want.N || got.Kept != want.Kept {
		return fmt.Errorf("shape (%d,%d,%d) != (%d,%d,%d)", got.L, got.N, got.Kept, want.L, want.N, want.Kept)
	}
	if len(got.Mask) != len(want.Mask) {
		return fmt.Errorf("%d mask words, want %d", len(got.Mask), len(want.Mask))
	}
	for w := range want.Mask {
		if got.Mask[w] != want.Mask[w] {
			return fmt.Errorf("mask word %d %#x != %#x", w, got.Mask[w], want.Mask[w])
		}
	}
	for i := range want.cbins {
		if got.cbins[i] != want.cbins[i] {
			return fmt.Errorf("bin %d %v != %v", i, got.cbins[i], want.cbins[i])
		}
	}
	for i := range want.rbins {
		if math.Float64bits(got.rbins[i]) != math.Float64bits(want.rbins[i]) {
			return fmt.Errorf("bin %d %v != %v", i, got.rbins[i], want.rbins[i])
		}
	}
	if len(got.Vals) != len(want.Vals) {
		return fmt.Errorf("%d packed floats, want %d", len(got.Vals), len(want.Vals))
	}
	for i := range want.Vals {
		if math.Float32bits(got.Vals[i]) != math.Float32bits(want.Vals[i]) {
			return fmt.Errorf("val %d %g != %g", i, got.Vals[i], want.Vals[i])
		}
	}
	if got.AbsMax != want.AbsMax {
		return fmt.Errorf("absMax %g != %g", got.AbsMax, want.AbsMax)
	}
	return nil
}

// TestAnalyzePackedMatchesReference pins the fused select+gather sweep
// against the unfused reference, bit for bit: same mask words, same
// packed values in the same order, same absMax, and — once zeroDropped
// has run, as it does in Roundtrip — the same zeroed spectrum —
// for both transforms, across signal shapes (random, constant, tie-heavy,
// sparse impulse), lengths from the padded-up 0 and 1 through several
// chunk counts, and the full theta range including the keep-everything
// and drop-everything edges.
func TestAnalyzePackedMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	signals := map[string]func(n int) []float32{
		"random": func(n int) []float32 {
			x := make([]float32, n)
			for i := range x {
				x[i] = float32(r.NormFloat64())
			}
			return x
		},
		// A periodic signal produces many exactly-equal magnitude bins,
		// exercising the tie-fill ordering.
		"tie-heavy": func(n int) []float32 {
			x := make([]float32, n)
			for i := range x {
				x[i] = float32(i%16) - 7.5
			}
			return x
		},
		"impulse": func(n int) []float32 {
			x := make([]float32, n)
			if n > 0 {
				x[n/3] = 5
			}
			return x
		},
		"zeros": func(n int) []float32 { return make([]float32, n) },
	}
	var fus Spectrum // reused across every case and both transforms
	for _, tr := range transforms {
		for name, gen := range signals {
			for _, n := range []int{0, 1, 2, 100, 4096, 5000, 1 << 14} {
				x := gen(n)
				for _, theta := range []float64{0, 0.15, 0.5, 0.85, 0.99, 1} {
					var ref Spectrum
					analyzeReference(tr.t, &ref, x, theta)
					tr.t.Analyze(&fus, x, theta, nil)
					tr.t.zeroDropped(&fus) // the dense comparison's step, as in Roundtrip
					if err := sameSpectrum(&fus, &ref); err != nil {
						t.Fatalf("%s %s n=%d θ=%g: %v", tr.name, name, n, theta, err)
					}
				}
			}
		}
	}
}

// TestAnalyzePackedBufferTooSmall: a reused Spectrum whose value buffer
// is too small for the new keep count is regrown, never overrun.
func TestAnalyzePackedBufferTooSmall(t *testing.T) {
	x := make([]float32, 100)
	for i := range x {
		x[i] = float32(i)
	}
	for _, tr := range transforms {
		spec := Spectrum{Vals: make([]float32, 2), Mask: make([]uint64, 1)}
		tr.t.Analyze(&spec, x, 0.5, nil)
		tr.t.zeroDropped(&spec)
		var ref Spectrum
		analyzeReference(tr.t, &ref, x, 0.5)
		if err := sameSpectrum(&spec, &ref); err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
	}
}
