package cfft

import (
	"fmt"
	"math"
	"testing"
)

// Sizes match real layer gradients: 2^16 (small dense layer) through 2^22
// (large embedding / conv block).
var benchSizes = []int{1 << 16, 1 << 18, 1 << 20, 1 << 22}

func BenchmarkPlanForward(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			plan := PlanFor(n)
			src := make([]complex128, n)
			dst := make([]complex128, n)
			for i := range src {
				src[i] = complex(math.Sin(float64(i)), 0)
			}
			b.SetBytes(int64(n * 16))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan.Forward(dst, src)
			}
		})
	}
}

func BenchmarkRealPlanForward(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			plan := RealPlanFor(n)
			src := make([]float64, n)
			spec := make([]complex128, plan.SpectrumLen())
			for i := range src {
				src[i] = math.Sin(float64(i))
			}
			b.SetBytes(int64(n * 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan.Forward(spec, src)
			}
		})
	}
}

// TestPlanForConcurrent hammers the global caches from many goroutines to
// prove the publish-once slots hand every caller the same plan.
func TestPlanForConcurrent(t *testing.T) {
	const n = 1 << 10
	ch := make(chan *Plan, 16)
	for g := 0; g < 16; g++ {
		go func() { ch <- PlanFor(n) }()
	}
	first := <-ch
	for g := 1; g < 16; g++ {
		if p := <-ch; p != first {
			t.Fatal("PlanFor returned different plans for the same length")
		}
	}
	if RealPlanFor(n) != RealPlanFor(n) {
		t.Fatal("RealPlanFor not cached")
	}
	if DCTPlanFor(n) != DCTPlanFor(n) {
		t.Fatal("DCTPlanFor not cached")
	}
}

func TestPaddedLen(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024},
	}
	for _, c := range cases {
		if got := PaddedLen(c.n); got != c.want {
			t.Errorf("PaddedLen(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// BenchmarkReorder times the bit-reversal pass alone at 2^18 points, in
// place, in both directions (the inverse also scales by 1/n): the memory
// floor it sits against is a tile-sized in-place swap of the same 4 MiB.
// Each inverse pass scales by 2^-18, so the input is restored, untimed,
// every 32 passes, long before it could reach the subnormal range.
func BenchmarkReorder(b *testing.B) {
	const n = 1 << 18
	p := PlanFor(n)
	src := make([]complex128, n)
	for i := range src {
		src[i] = complex(math.Sin(float64(i)), math.Cos(float64(i)))
	}
	x := append([]complex128(nil), src...)
	for _, inverse := range []bool{false, true} {
		b.Run(fmt.Sprintf("n=%d/inverse=%v", n, inverse), func(b *testing.B) {
			b.SetBytes(n * 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%32 == 31 {
					b.StopTimer()
					copy(x, src)
					b.StartTimer()
				}
				p.reorder(x, x, inverse)
			}
		})
	}
}
