package cfft

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"fftgrad/internal/parallel"
)

// TestReorderMatchesBitReverse holds the tiled permutation to the index
// loop it replaced — dst[i] = src[rev(i)], times complex(1/n, 0) when
// inverse — on output bits, for every power of two through 2^20 (the
// direct loop below 2^8, one tile at 2^8, tile pairs above), in place and
// out of place, forward and inverse, serial and split over three workers.
// The forward pass only moves elements, so NaN payloads and zero signs
// must survive it exactly; the inverse multiplies, where two NaNs count
// as equal (sameBits).
func TestReorderMatchesBitReverse(t *testing.T) {
	// firstDiff is the first index at which a and b differ in any bit, or -1.
	firstDiff := func(a, b []complex128) int {
		for i := range a {
			if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
				math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
				return i
			}
		}
		return -1
	}
	rng := rand.New(rand.NewSource(22))
	part := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Copysign(0, float64(rng.Intn(2))-0.5)
		case 1:
			return math.Copysign(math.Float64frombits(uint64(rng.Int63n(1<<52))), rng.Float64()-0.5) // subnormal
		case 2:
			return math.Inf(rng.Intn(2)*2 - 1)
		case 3:
			return math.Float64frombits(0x7FF8000000000000 | uint64(rng.Int63n(1<<51)) | uint64(rng.Intn(2))<<63) // NaN, any payload
		}
		return rng.NormFloat64()
	}
	for logN := 0; logN <= maxLogUnderTest(); logN++ {
		n := 1 << logN
		p := PlanFor(n)
		src := make([]complex128, n)
		for i := range src {
			src[i] = complex(part(), part())
		}
		for _, inverse := range []bool{false, true} {
			want := make([]complex128, n)
			for i := range want {
				want[i] = src[bits.Reverse64(uint64(i))>>(64-logN)]
				if inverse {
					want[i] *= complex(1/float64(n), 0)
				}
			}
			for _, workers := range []int{1, 3} {
				for _, inPlace := range []bool{false, true} {
					restore := parallel.SetWorkers(workers)
					in := append([]complex128(nil), src...)
					got := in
					if !inPlace {
						got = make([]complex128, n)
					}
					p.reorder(got, in, inverse)
					parallel.SetWorkers(restore)
					what := fmt.Sprintf("n=2^%d inverse=%v workers=%d inPlace=%v", logN, inverse, workers, inPlace)
					if inverse {
						diffComplex(t, what, got, want)
						continue
					}
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("%s: element %d: %v, want %v", what, i, got[i], want[i])
					}
					if i := firstDiff(in, src); !inPlace && i >= 0 {
						t.Fatalf("%s: source element %d modified", what, i)
					}
				}
			}
		}
	}
}
