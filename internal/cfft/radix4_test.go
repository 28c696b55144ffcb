package cfft

import (
	"math"
	"math/bits"
	"testing"

	"fftgrad/internal/parallel"
)

// radix2DFT is the pre-radix-4 reference network: plain iterative radix-2
// Cooley-Tukey over bit-reversed input, kept here as an independent check
// that the fused radix-4 stages compute the same transform.
func radix2DFT(p *Plan, x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		out[i] = x[bits.Reverse(uint(i))>>(bits.UintSize-p.logN)]
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				ang := -2 * math.Pi * float64(k) / float64(size)
				if inverse {
					ang = -ang
				}
				w := complex(math.Cos(ang), math.Sin(ang))
				a := out[start+k]
				b := out[start+k+half] * w
				out[start+k] = a + b
				out[start+k+half] = a - b
			}
		}
	}
	if inverse {
		s := complex(1/float64(n), 0)
		for i := range out {
			out[i] *= s
		}
	}
	return out
}

// TestRadix4MatchesNaive checks the fused radix-4 network against the
// O(n²) DFT across every power-of-two size through both leaf parities.
func TestRadix4MatchesNaive(t *testing.T) {
	for n := 1; n <= 4096; n <<= 1 {
		x := randComplex(n, int64(n))
		p := NewPlan(n)
		for _, inverse := range []bool{false, true} {
			got := make([]complex128, n)
			if inverse {
				p.Inverse(got, x)
			} else {
				p.Forward(got, x)
			}
			want := naiveDFT(x, inverse)
			tol := 1e-9 * float64(n)
			if d := maxAbsDiff(got, want); d > tol {
				t.Errorf("n=%d inverse=%v: max diff %g > %g", n, inverse, d, tol)
			}
		}
	}
}

// TestRadix4MatchesRadix2 checks the fused network against the radix-2
// reference at sizes spanning the leaf boundary for both parities, where
// the iterative-leaf/recursive-combine split changes shape.
func TestRadix4MatchesRadix2(t *testing.T) {
	for _, n := range []int{1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15} {
		x := randComplex(n, int64(n)+7)
		p := PlanFor(n)
		for _, inverse := range []bool{false, true} {
			got := make([]complex128, n)
			if inverse {
				p.Inverse(got, x)
			} else {
				p.Forward(got, x)
			}
			want := radix2DFT(p, x, inverse)
			// The two networks associate sums differently; round-off is
			// O(log n · eps) relative to the signal energy.
			tol := 1e-11 * float64(n)
			if d := maxAbsDiff(got, want); d > tol {
				t.Errorf("n=%d inverse=%v: max diff %g > %g", n, inverse, d, tol)
			}
		}
	}
}

// TestParallelMatchesSerial pins that the pool-partitioned transform is
// bit-identical to the serial one: chunking only changes which worker
// executes a butterfly row, never the arithmetic or its order within a
// row, so even floating-point results must match exactly.
func TestParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{1 << 16, 1 << 17} {
		x := randComplex(n, int64(n)+99)
		p := PlanFor(n)
		for _, inverse := range []bool{false, true} {
			serial := make([]complex128, n)
			par := make([]complex128, n)

			restore := parallel.SetWorkers(1)
			if inverse {
				p.Inverse(serial, x)
			} else {
				p.Forward(serial, x)
			}
			parallel.SetWorkers(4)
			if inverse {
				p.Inverse(par, x)
			} else {
				p.Forward(par, x)
			}
			parallel.SetWorkers(restore)

			for i := range serial {
				if serial[i] != par[i] {
					t.Fatalf("n=%d inverse=%v: index %d serial=%v parallel=%v", n, inverse, i, serial[i], par[i])
				}
			}
		}
	}
}

// TestInverseScaleFolding checks the in-place aliased inverse (whose 1/n
// normalization rides the swap pass) against the out-of-place one.
func TestInverseScaleFolding(t *testing.T) {
	for _, n := range []int{8, 64, 1 << 13} {
		x := randComplex(n, int64(n)+3)
		p := PlanFor(n)
		out := make([]complex128, n)
		p.Inverse(out, x)
		inPlace := append([]complex128(nil), x...)
		p.Inverse(inPlace, inPlace)
		if d := maxAbsDiff(out, inPlace); d != 0 {
			t.Errorf("n=%d: aliased inverse differs from out-of-place by %g", n, d)
		}
	}
}
