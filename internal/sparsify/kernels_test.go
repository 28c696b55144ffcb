package sparsify

import (
	"fmt"
	"math"
	mbits "math/bits"
	"math/rand"
	"testing"

	"fftgrad/internal/parallel"
)

// The active kernels against the Go reference on raw bits. Where the
// build has only the reference (no assembly for the platform, or -tags
// purego) they compare it with itself and pass trivially.

// specialF64 draws from the values where a vector kernel could part from
// the scalar one: ±0, subnormals, ±Inf, NaN, and normals across the range.
func specialF64(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, float64(rng.Intn(2))-0.5)
	case 1:
		return math.Copysign(math.Float64frombits(uint64(rng.Int63n(1<<52))), rng.Float64()-0.5)
	case 2:
		return math.Inf(rng.Intn(2)*2 - 1)
	case 3:
		return math.NaN()
	}
	return rng.NormFloat64() * math.Exp2(float64(rng.Intn(400)-200))
}

func sameF64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// TestMagsMatchesReference: |z|² over bins with special parts, over
// ranges that start and end off the vector kernel's groups of four.
func TestMagsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bins := make([]complex128, 1037)
	for i := range bins {
		bins[i] = complex(specialF64(rng), specialF64(rng))
	}
	for _, r := range [][2]int{{0, len(bins)}, {1, 10}, {3, 3}, {5, 1030}, {0, 3}} {
		got, want := make([]float64, len(bins)), make([]float64, len(bins))
		active.mags(got, bins, r[0], r[1])
		scalar.mags(want, bins, r[0], r[1])
		for i := range want {
			if !sameF64(got[i], want[i]) {
				t.Fatalf("range %v bin %d (%v): %v (%#x), reference %v (%#x)", r, i, bins[i],
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// passARef is passA as it was before the mask words had a kernel: one
// bit at a time, the partial last word included.
func passARef(c passACtx, clo, chi int) {
	for ch := clo; ch < chi; ch++ {
		wlo, whi := parallel.ChunkBounds(ch, packChunkWords, len(c.mask))
		gt, eqn := 0, 0
		for w := wlo; w < whi; w++ {
			base := w << 6
			var gtW, eqW uint64
			for i, m := range c.mags[base:min(base+64, c.nb)] {
				if m > c.thr {
					gtW |= 1 << uint(i)
				}
				if m == c.thr {
					eqW |= 1 << uint(i)
				}
			}
			c.mask[w], c.eq[w] = gtW, eqW
			gt += mbits.OnesCount64(gtW)
			eqn += mbits.OnesCount64(eqW)
		}
		c.gtCnt[ch], c.eqCnt[ch] = gt, eqn
	}
}

// TestPassAMatchesReference: the mask and tie words and their per-chunk
// counts, on magnitudes where a quarter sit exactly at the threshold and
// some are NaN or ±Inf, at bin counts that end on and off a word and a
// chunk (the last partial word goes through the Go reference), and at a
// NaN threshold, where nothing is above or at it.
func TestPassAMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, nb := range []int{1, 63, 64, 65, 200, 4096, 4097, 3*4096 + 100} {
		mags := make([]float64, nb)
		for i := range mags {
			switch rng.Intn(8) {
			case 0, 1:
				mags[i] = 1 // the threshold
			case 2:
				mags[i] = math.NaN()
			case 3:
				mags[i] = math.Inf(1)
			default:
				mags[i] = math.Abs(specialF64(rng))
			}
		}
		for _, thr := range []float64{1, 0, math.Inf(1), math.NaN()} {
			words := (nb + 63) / 64
			chunks := (words + packChunkWords - 1) / packChunkWords
			run := func(body func(passACtx, int, int)) passACtx {
				c := passACtx{mags: mags, mask: make([]uint64, words), eq: make([]uint64, words),
					gtCnt: make([]int, chunks), eqCnt: make([]int, chunks), thr: thr, nb: nb}
				body(c, 0, chunks)
				return c
			}
			got, want := run(passA), run(passARef)
			what := fmt.Sprintf("nb=%d thr=%v", nb, thr)
			for w := range want.mask {
				if got.mask[w] != want.mask[w] || got.eq[w] != want.eq[w] {
					t.Fatalf("%s word %d: gt %#x eq %#x, reference gt %#x eq %#x", what, w,
						got.mask[w], got.eq[w], want.mask[w], want.eq[w])
				}
			}
			for ch := range want.gtCnt {
				if got.gtCnt[ch] != want.gtCnt[ch] || got.eqCnt[ch] != want.eqCnt[ch] {
					t.Fatalf("%s chunk %d: counts (%d, %d), reference (%d, %d)", what, ch,
						got.gtCnt[ch], got.eqCnt[ch], want.gtCnt[ch], want.eqCnt[ch])
				}
			}
		}
	}
}

// TestNarrowMatchesReference: float32(x) on values that overflow to ±Inf,
// land on subnormals or round to ±0, sit exactly halfway between two
// float32 (ties to even both ways), NaNs with payloads, and random
// doubles, over ranges off the kernel's groups of eight.
func TestNarrowMatchesReference(t *testing.T) {
	halfway := func(f float32, up bool) float64 { // f ± half an ulp, exactly
		next := math.Nextafter32(f, float32(math.Inf(1)))
		if !up {
			next = math.Nextafter32(f, float32(math.Inf(-1)))
		}
		return (float64(f) + float64(next)) / 2
	}
	src := []float64{
		math.MaxFloat32, halfway(math.MaxFloat32, true), 2 * math.MaxFloat32, -1e39, math.Inf(-1),
		1e-40, -1e-45, 1e-46, math.SmallestNonzeroFloat32 / 2, -math.SmallestNonzeroFloat32 / 2,
		halfway(1, true), halfway(1, false), halfway(1+0x1p-23, true), halfway(-3, true),
		halfway(math.SmallestNonzeroFloat32, true), halfway(0x1p-126, false),
		math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0xFFF4000000000001),
	}
	rng := rand.New(rand.NewSource(7))
	for len(src) < 1000 {
		src = append(src, specialF64(rng), halfway(float32(rng.NormFloat64()), rng.Intn(2) == 0))
	}
	for _, r := range [][2]int{{0, len(src)}, {1, 20}, {3, 7}, {9, 999}} {
		got, want := make([]float32, len(src)), make([]float32, len(src))
		active.narrow(got, src, r[0], r[1])
		scalar.narrow(want, src, r[0], r[1])
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("range %v element %d (%v): %v (%#x), reference %v (%#x)", r, i, src[i],
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
}

// TestNarrowAccMatchesReference: the narrow-accumulate kernel against
// its Go reference, dst = (dst + wt·float32(src))·scale, on the narrowing
// test's hard doubles and on running sums of ±0, subnormals, ±Inf and NaN,
// for weights and scales that round (λ³, 1/3) and that do not (1, 0.5),
// over ranges off the kernel's groups of eight.
func TestNarrowAccMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := []float64{math.MaxFloat32, 2 * math.MaxFloat32, 1e-40, -1e-45, math.Copysign(0, -1), 0, math.NaN(), math.Inf(1)}
	for len(src) < 1000 {
		src = append(src, specialF64(rng), rng.NormFloat64())
	}
	dst0 := make([]float32, len(src))
	for i := range dst0 {
		dst0[i] = float32(specialF64(rng))
		if i%5 == 0 {
			dst0[i] = 0 // a cleared sum: +0 + −0 must stay +0
		}
	}
	for _, a := range []accum{{1, 1}, {0.5, 1}, {float32(math.Pow(0.9, 3)), 1.0 / 3}, {1, 1.0 / 3}} {
		for _, r := range [][2]int{{0, len(src)}, {1, 20}, {3, 7}, {9, 999}} {
			got, want := append([]float32(nil), dst0...), append([]float32(nil), dst0...)
			active.narrowAcc(got, src, a, r[0], r[1])
			scalar.narrowAcc(want, src, a, r[0], r[1])
			for i := range want {
				if g, w := got[i], want[i]; math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
					t.Fatalf("%+v range %v element %d (dst %v, src %v): %v (%#x), reference %v (%#x)", a, r, i,
						dst0[i], src[i], g, math.Float32bits(g), w, math.Float32bits(w))
				}
			}
		}
	}
}

// BenchmarkNarrowAcc times the narrow-accumulate pass alone at the
// wide_fft gradient's length, Go reference against the active set (run
// with -cpu 1: the assembly is kept only at ≥ 1.5× the reference).
func BenchmarkNarrowAcc(b *testing.B) {
	const n = 476032
	src, dst := make([]float64, n), make([]float32, n)
	for i := range src {
		src[i] = math.Sin(float64(i))
	}
	for _, k := range []struct {
		name string
		set  kernels
	}{{"go", scalar}, {"active", active}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(12 * n)
			for i := 0; i < b.N; i++ {
				k.set.narrowAcc(dst, src, accum{0.5, 1}, 0, n)
			}
		})
	}
}
