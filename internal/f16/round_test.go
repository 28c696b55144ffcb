package f16

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestRoundBitsMatchesEncodeDecode pins the one-step rounding kernel to
// the two-step conversion it replaced, decodeBits(encodeBits(·)), on every
// float32 bit pattern (every 251st under -short, plus each class boundary
// and its neighbours either way). The sweep goes through RoundWiden eight
// patterns a call — the width of the vector kernel, where the platform
// has one — and through roundBits itself whenever that is not what
// RoundWiden ran.
func TestRoundBitsMatchesEncodeDecode(t *testing.T) {
	// decodeBits depends on the 16-bit code alone: tabulate it once, and
	// its widening with it.
	decoded := make([]uint32, 1<<16)
	widened := make([]uint64, 1<<16)
	for h := range decoded {
		f := decodeBits(Bits(h))
		decoded[h], widened[h] = math.Float32bits(f), math.Float64bits(float64(f))
	}
	// check runs the eight patterns b, b+step, ... through buf and reports
	// the first that differs.
	type buf struct {
		src [8]float32
		dst [8]float64
	}
	check := func(w *buf, b, step uint32) bool {
		for i := range w.src {
			w.src[i] = math.Float32frombits(b + uint32(i)*step)
		}
		RoundWiden(w.dst[:], w.src[:])
		for i := range w.src {
			p := b + uint32(i)*step
			h := encodeBits(p)
			if got := math.Float64bits(w.dst[i]); got != widened[h] {
				t.Errorf("bits=%#08x: RoundWiden %#016x, decodeBits(encodeBits) widened %#016x", p, got, widened[h])
				return false
			}
			if roundWidenVec == nil {
				continue // RoundWiden was roundBits
			}
			if got := roundBits(p); got != decoded[h] {
				t.Errorf("bits=%#08x: roundBits %#08x, decodeBits(encodeBits) %#08x", p, got, decoded[h])
				return false
			}
		}
		return true
	}
	// Class boundaries: zero, 2^-25, 2^-24, 2^-14, 65504, 65520, 2^16, Inf,
	// first/last NaN, the float32 subnormal/normal edge.
	for _, edge := range []uint32{0, 0x00800000, 0x33000000, 0x33800000, 0x38800000,
		0x477FE000, 0x477FF000, 0x47800000, 0x7F800000, 0x7FC00000, 0x7FFFFFFF} {
		for _, sign := range []uint32{0, 0x80000000} {
			check(new(buf), (edge-4)^sign, 1)
			check(new(buf), (edge+1)^sign, 1)
		}
	}
	stride := uint64(1)
	if testing.Short() {
		stride = 251
	}
	// Half the cores: the sweep runs beside other packages' timing-
	// sensitive tests under `go test ./...`.
	workers := max(1, runtime.GOMAXPROCS(0)/2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := uint64(w) << 32 / uint64(workers)
			hi := uint64(w+1) << 32 / uint64(workers)
			w8 := new(buf)
			for b := lo; b < hi; b += 8 * stride { // the last group may run past hi: harmless
				if !check(w8, uint32(b), uint32(stride)) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRoundWidenTails runs every length from 0 to 17 — no whole group of
// eight, one and two with every tail length — against roundBits, and
// checks that nothing past len(src) is written.
func TestRoundWidenTails(t *testing.T) {
	src := append(gradLike(12), 0, float32(math.Inf(-1)), float32(math.NaN()), MinSubnormal*0.75, 65520)
	for n := 0; n <= len(src); n++ {
		dst := make([]float64, n+1)
		dst[n] = -1
		RoundWiden(dst, src[:n])
		for i, v := range src[:n] {
			want := float64(math.Float32frombits(roundBits(math.Float32bits(v))))
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("n=%d: RoundWiden[%d] of %g: %g, want %g", n, i, v, dst[i], want)
			}
		}
		if dst[n] != -1 {
			t.Fatalf("n=%d: wrote past the source length", n)
		}
	}
}

// gradLike is a gradient-shaped input: zero-mean, magnitudes spread over
// six decades, so normal and subnormal halves and flushed values mix.
func gradLike(n int) []float32 {
	r := rand.New(rand.NewSource(11))
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(r.NormFloat64() * math.Pow(10, -6*r.Float64()))
	}
	return x
}

// TestRoundWidenMatchesRoundTrip pins the fused front end to the separate
// round-trip and widening passes.
func TestRoundWidenMatchesRoundTrip(t *testing.T) {
	src := gradLike(1 << 12)
	src = append(src, 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.NaN()),
		MinSubnormal, MinSubnormal*0.75, MinNormal, MaxValue, 65520, 1e-9)
	want := append([]float32(nil), src...)
	for i, v := range want {
		want[i] = decodeBits(encodeBits(math.Float32bits(v)))
	}
	got := make([]float64, len(src))
	RoundWiden(got, src)
	for i := range src {
		if math.Float64bits(got[i]) != math.Float64bits(float64(want[i])) {
			t.Fatalf("RoundWiden[%d] of %g: %g, want %g", i, src[i], got[i], want[i])
		}
	}
}

func BenchmarkRoundWiden(b *testing.B) {
	src := gradLike(1 << 16)
	dst := make([]float64, len(src))
	b.SetBytes(int64(4 * len(src)))
	for i := 0; i < b.N; i++ {
		RoundWiden(dst, src)
	}
}

func BenchmarkRoundTripParent(b *testing.B) {
	src := gradLike(1 << 16)
	b.SetBytes(int64(4 * len(src)))
	for i := 0; i < b.N; i++ {
		for j, v := range src {
			src[j] = decodeBits(encodeBits(math.Float32bits(v)))
		}
	}
}
