package cfft

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"fftgrad/internal/parallel"
)

// The active kernel set and the Go reference are one function: these
// tests run both over the same inputs and compare raw output bits. Where
// the build has only the reference (no assembly for the platform, or
// -tags purego) they compare it with itself and pass trivially.

// fmaProbe's operands make x*y+z differ between a fused and an unfused
// evaluation: x*y = 1 + 2^-26 + 2^-54 rounds to 1 + 2^-26 unfused.
var fmaProbe = [3]float64{1 + 0x1p-27, 1 + 0x1p-27, -(1 + 0x1p-26)}

// skipIfFused skips when the compiler fuses multiply-add in the Go
// reference (GOAMD64=v3, arm64, ...): the reference itself then differs
// from the unfused IEEE sequence the vector kernels execute.
func skipIfFused(t *testing.T) {
	x, y, z := fmaProbe[0], fmaProbe[1], fmaProbe[2]
	if x*y+z != 0 {
		t.Skip("the Go reference was compiled with fused multiply-add; bit identity with unfused kernels is not expected")
	}
}

// withKernels runs fn under kernel set k.
func withKernels(k kernels, fn func()) {
	saved := active
	active = k
	defer func() { active = saved }()
	fn()
}

// sameBits reports whether two outputs are the same value bit for bit.
// Two NaNs count as the same: which operand's payload and sign a NaN
// result inherits is decided by operand order, which neither IEEE 754 nor
// the Go compiler pins down for a commutative operation.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func diffComplex(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for i := range want {
		if !sameBits(real(got[i]), real(want[i])) || !sameBits(imag(got[i]), imag(want[i])) {
			t.Fatalf("%s: element %d: active %v (%#x, %#x), reference %v (%#x, %#x)", what, i,
				got[i], math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
				want[i], math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
		}
	}
}

func diffReal(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d: active %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// signalClasses are the input families of the property tests. slow marks
// the one whose every operation takes a microcode assist (twenty times the
// time): the whole transforms stop at 2^14 for it.
var signalClasses = []struct {
	name string
	gen  func(rng *rand.Rand) float64
	slow bool
}{
	{"random", func(rng *rand.Rand) float64 { return rng.NormFloat64() }, false},
	{"ties", func(rng *rand.Rand) float64 { return float64(rng.Intn(5)-2) * 0.5 }, false},
	{"zeros", func(rng *rand.Rand) float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return float64(rng.Intn(3) - 1)
	}, false},
	{"subnormal", func(rng *rand.Rand) float64 {
		return math.Copysign(math.Float64frombits(uint64(rng.Int63n(1<<52))), rng.Float64()-0.5)
	}, true},
	{"inf", func(rng *rand.Rand) float64 {
		if rng.Intn(64) == 0 {
			return math.Inf(rng.Intn(2)*2 - 1)
		}
		return rng.NormFloat64()
	}, false},
	{"nan", func(rng *rand.Rand) float64 {
		if rng.Intn(64) == 0 {
			return math.NaN()
		}
		return rng.NormFloat64()
	}, false},
}

func classSignal(gen func(*rand.Rand) float64, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = gen(rng)
	}
	return x
}

func maxLogUnderTest() int {
	if testing.Short() {
		return 16
	}
	return 20
}

// TestKernelsMatchReference drives each kernel directly, including the
// shapes only the parallel split produces: row ranges that start and end
// inside a group of four.
func TestKernelsMatchReference(t *testing.T) {
	skipIfFused(t)
	for _, class := range signalClasses {
		for _, lg := range []int{1, 2, 3, 4, 5, 6, 7, 10, 11} {
			n := 1 << lg
			p := NewPlan(n)
			x := packed(classSignal(class.gen, 2*n, int64(lg)))
			run := func(what string, fn func(k kernels, x []complex128)) {
				got, want := append([]complex128(nil), x...), append([]complex128(nil), x...)
				fn(active, got)
				fn(scalar, want)
				diffComplex(t, fmt.Sprintf("%s/%s n=%d", class.name, what, n), got, want)
			}
			run("stage2", func(k kernels, x []complex128) { k.stage2(x) })
			for _, inverse := range []bool{false, true} {
				run("stage4", func(k kernels, x []complex128) { k.stage4(x, inverse) })
				for m := 8; m <= n; m <<= 1 {
					tw := p.tw[bits.TrailingZeros(uint(m))]
					if tw == nil { // not a stage of this parity
						continue
					}
					q := m >> 2
					run(fmt.Sprintf("radix4 m=%d", m), func(k kernels, x []complex128) { k.radix4(x, tw, m, 0, q, inverse) })
					rng := rand.New(rand.NewSource(int64(m)))
					for trial := 0; trial < 8; trial++ {
						lo := rng.Intn(q + 1)
						hi := lo + rng.Intn(q+1-lo)
						run(fmt.Sprintf("radix4 m=%d rows [%d,%d)", m, lo, hi),
							func(k kernels, x []complex128) { k.radix4(x, tw, m, lo, hi, inverse) })
					}
				}
			}
			rp := NewRealPlan(2 * n)
			got, want := make([]complex128, n+1), make([]complex128, n+1)
			active.untangle(got, x, rp.untw)
			scalar.untangle(want, x, rp.untw)
			diffComplex(t, fmt.Sprintf("%s/untangle n=%d", class.name, n), got, want)
			src := append(append([]complex128(nil), x...), x[0])
			run("retangle", func(k kernels, x []complex128) { k.retangle(x, src, rp.untw) })
		}
	}
}

// TestTransformsMatchReference runs every transform the package exports,
// at every power-of-two length, both directions, serial and through the
// worker-pool split (three workers cut the combining stages' rows at odd
// boundaries), under the active kernels and under the reference.
func TestTransformsMatchReference(t *testing.T) {
	skipIfFused(t)
	for _, workers := range []int{1, 3} {
		restore := parallel.SetWorkers(workers)
		for ci, class := range signalClasses {
			for lg := 1; lg <= maxLogUnderTest(); lg++ {
				if workers > 1 && 1<<lg < fftParMin || class.slow && lg > 14 {
					continue // below the split the serial run covered it
				}
				n := 1 << lg
				what := fmt.Sprintf("%s n=2^%d workers=%d", class.name, lg, workers)
				sig := classSignal(class.gen, 2*n, int64(100*ci+lg))
				z := packed(sig)

				both := func(fn func() ([]complex128, []float64)) (gc, wc []complex128, gr, wr []float64) {
					gc, gr = fn()
					withKernels(scalar, func() { wc, wr = fn() })
					return
				}
				p, rp, dp := PlanFor(n), RealPlanFor(n), DCTPlanFor(n)
				for _, inverse := range []bool{false, true} {
					gc, wc, _, _ := both(func() ([]complex128, []float64) {
						out := make([]complex128, n)
						p.transform(out, z, inverse)
						return out, nil
					})
					diffComplex(t, fmt.Sprintf("%s Plan inverse=%v", what, inverse), gc, wc)
				}
				gc, wc, gr, wr := both(func() ([]complex128, []float64) {
					spec := make([]complex128, n/2+1)
					rp.Forward(spec, sig[:n])
					back := make([]float64, n)
					rp.Inverse(back, packed(sig)[:n/2+1])
					return spec, back
				})
				diffComplex(t, what+" RealPlan.Forward", gc, wc)
				diffReal(t, what+" RealPlan.Inverse", gr, wr)
				_, _, gr, wr = both(func() ([]complex128, []float64) {
					out := make([]float64, 2*n)
					dctForward(dp, out[:n], sig[:n])
					copy(out[n:], dctInverse(dp, sig[n:]))
					return nil, out
				})
				diffReal(t, what+" DCTPlan", gr, wr)
			}
		}
		parallel.SetWorkers(restore)
	}
}

// TestSerialRecursionMatchesReference pins the depth-first recursion by
// itself (the path every transform below the parallel threshold takes, and
// every sub-block of a parallel one), at sizes on both sides of the leaf.
func TestSerialRecursionMatchesReference(t *testing.T) {
	skipIfFused(t)
	for _, class := range signalClasses {
		for _, lg := range []int{11, 12, 13, 14, 15, 16} {
			n := 1 << lg
			p := PlanFor(n)
			x := packed(classSignal(class.gen, 2*n, int64(lg)))
			for _, inverse := range []bool{false, true} {
				got, want := append([]complex128(nil), x...), append([]complex128(nil), x...)
				p.recurse(got, inverse)
				withKernels(scalar, func() { p.recurse(want, inverse) })
				diffComplex(t, fmt.Sprintf("%s recurse n=2^%d inverse=%v", class.name, lg, inverse), got, want)
			}
		}
	}
}

// TestTileKernelsMatchReference drives the bit-reversal tile kernel
// directly against the Go reference over whole passes at 2^8 through
// 2^12 points (one tile, then tile pairs), in and out of place, both
// directions, on parts drawn from ±0, subnormals, ±Inf, NaN and normals
// across the exponent range. The inverse's zero products are what make
// (-0, -1)·(s, 0) = (+0, -s) and (x, ±Inf)·(s, 0) = (NaN, ±Inf): a kernel
// that skips them fails here. TestReorderMatchesBitReverse runs the same
// kernel through reorder on one worker and three.
func TestTileKernelsMatchReference(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), -1, 1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(1), -math.Float64frombits(0x000FFFFFFFFFFFFF), math.SmallestNonzeroFloat64 * 3}
	rng := rand.New(rand.NewSource(27))
	part := func() float64 {
		if rng.Intn(2) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * math.Exp2(float64(rng.Intn(2100)-1050))
	}
	for lg := 8; lg <= 12; lg++ {
		n := 1 << lg
		p := PlanFor(n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(part(), part())
		}
		x[0] = complex(math.Copysign(0, -1), -1) // the b·0 term decides this zero's sign
		for _, inverse := range []bool{false, true} {
			for _, inPlace := range []bool{false, true} {
				units := n >> 8
				if inPlace {
					units = max(units/2, 1)
				}
				run := func(k kernels) []complex128 {
					src, dst := append([]complex128(nil), x...), make([]complex128, n)
					if inPlace {
						dst = src
					}
					k.tiles(reorderCtx{p, dst, src, inverse}, 0, units)
					return dst
				}
				got, want := run(active), run(scalar)
				what := fmt.Sprintf("n=2^%d inverse=%v inPlace=%v", lg, inverse, inPlace)
				if inverse { // NaNs from Inf·0 may differ in payload only
					diffComplex(t, what, got, want)
					continue
				}
				for i := range want {
					if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
						math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
						t.Fatalf("%s: element %d: %v, reference %v", what, i, got[i], want[i])
					}
				}
			}
		}
	}
}
