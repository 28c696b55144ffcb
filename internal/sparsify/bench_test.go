package sparsify

import (
	"fmt"
	"math"
	"testing"
)

// benchGrad builds a deterministic pseudo-gradient of length n with the
// mixed-scale structure real layer gradients show.
func benchGrad(n int) []float32 {
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(math.Sin(float64(i)*0.7) * math.Exp(-float64(i%997)/500))
	}
	return g
}

// Sizes 2^16–2^22 match real layer gradients (dense layers through large
// conv/embedding blocks).
func BenchmarkAnalyzeSynthesize(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 18, 1 << 20, 1 << 22} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			grad := benchGrad(n)
			dst := make([]float32, n)
			var spec Spectrum
			FFT.Analyze(&spec, grad, 0.85, nil)
			b.SetBytes(int64(n * 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FFT.Analyze(&spec, grad, 0.85, nil)
				if err := FFT.Synthesize(dst, &spec, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTopKSpatialMask(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			grad := benchGrad(n)
			mask := make([]uint64, (n+63)/64)
			b.SetBytes(int64(n * 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				TopKSpatialMask(mask, grad, 0.85)
			}
		})
	}
}

// TestAnalyzeIntoReuse checks that one Spectrum cycled through Analyze at
// mixed sizes — and, across the subtests, through both transforms — keeps
// producing results identical to a fresh one.
func TestAnalyzeIntoReuse(t *testing.T) {
	var spec Spectrum
	for _, tr := range transforms {
		t.Run(tr.name, func(t *testing.T) {
			for _, n := range []int{5000, 300, 5000, 8192, 17} {
				grad := benchGrad(n)
				tr.t.Analyze(&spec, grad, 0.85, nil)
				var fresh Spectrum
				tr.t.Analyze(&fresh, grad, 0.85, nil)
				if err := sameSpectrum(&spec, &fresh); err != nil {
					t.Fatalf("n=%d: reused vs fresh: %v", n, err)
				}
			}
		})
	}
}
