package optim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The active momentum step against the Go reference on raw bits, NaN
// payloads included. Where the build has only the reference (no assembly
// for the platform, or -tags purego) they compare it with itself and pass
// trivially.

// stepSpecials are the operands where a vector step could part from the
// scalar one: signed zeros, subnormals, the largest finite values (whose
// sums overflow to ±Inf), infinities, quiet and signalling NaNs with
// distinct payloads of both signs, and two plain normals.
var stepSpecials = []uint32{
	0x00000000, 0x80000000, 0x00000001, 0x807fffff,
	0x7f7fffff, 0xff7fffff, 0x7f800000, 0xff800000,
	0x7fc00001, 0xffc12345, 0x7f800003, 0xffa00000,
	0x3fc00000, 0xc0100000,
}

// stepInputs builds parameters, velocities and gradients of n values:
// every triple of specials first (NaN meets NaN at each operation with
// the payloads in both orders), then operands that are special half of
// the time.
func stepInputs(rng *rand.Rand, n int) (w, vel, g []float32) {
	w, vel, g = make([]float32, n), make([]float32, n), make([]float32, n)
	k := len(stepSpecials)
	for i := range w {
		if i < k*k*k {
			w[i] = math.Float32frombits(stepSpecials[i/(k*k)])
			vel[i] = math.Float32frombits(stepSpecials[i/k%k])
			g[i] = math.Float32frombits(stepSpecials[i%k])
			continue
		}
		for _, p := range []*float32{&w[i], &vel[i], &g[i]} {
			*p = float32(rng.NormFloat64() * math.Exp2(float64(rng.Intn(60)-30)))
			if rng.Intn(2) == 0 {
				*p = math.Float32frombits(stepSpecials[rng.Intn(k)])
			}
		}
	}
	return w, vel, g
}

// checkStep runs one step of the active and the reference kernel from the
// same parameters and velocities and compares every element's bits.
func checkStep(t *testing.T, what string, w0, vel0, g []float32, mu, lr float32) {
	t.Helper()
	gw, gv := append([]float32(nil), w0...), append([]float32(nil), vel0...)
	ww, wv := append([]float32(nil), w0...), append([]float32(nil), vel0...)
	active.step(gw, gv, g, mu, lr)
	scalar.step(ww, wv, g, mu, lr)
	for i := range ww {
		if a, b := math.Float32bits(gv[i]), math.Float32bits(wv[i]); a != b {
			t.Fatalf("%s velocity %d (w %#x v %#x g %#x): %#x, reference %#x", what, i,
				math.Float32bits(w0[i]), math.Float32bits(vel0[i]), math.Float32bits(g[i]), a, b)
		}
		if a, b := math.Float32bits(gw[i]), math.Float32bits(ww[i]); a != b {
			t.Fatalf("%s parameter %d (w %#x v %#x g %#x): %#x, reference %#x", what, i,
				math.Float32bits(w0[i]), math.Float32bits(vel0[i]), math.Float32bits(g[i]), a, b)
		}
	}
}

// stepHypers are (μ, η) pairs: the paper's momentum at two rates, no
// momentum, a zero rate, rates that do and do not round, and a NaN of
// each against the operands' own NaNs.
var stepHypers = [][2]float32{
	{0.9, 0.01}, {0.99, 1e-3}, {0, 0.1}, {0.9, 0}, {0.5, 1},
	{math.Float32frombits(0x7fc0beef), 0.01}, {0.9, math.Float32frombits(0xffc0cafe)},
}

// TestSGDStepMatchesReference: the step kernel at every length 0–67 (the
// vector body, its tail, and both) and at the wide_* model's length.
func TestSGDStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	lengths := []int{476032}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		w, vel, g := stepInputs(rng, n)
		for _, h := range stepHypers {
			checkStep(t, fmt.Sprintf("n=%d μ=%v η=%v", n, h[0], h[1]), w, vel, g, h[0], h[1])
		}
	}
}

// FuzzSGDStepMatchesReference: the step kernel against the reference on
// arbitrary bit patterns for the parameters, velocities, gradients, μ
// and η.
func FuzzSGDStepMatchesReference(f *testing.F) {
	le := binary.LittleEndian
	var seed []byte
	for _, a := range stepSpecials {
		for _, b := range stepSpecials {
			seed = le.AppendUint32(le.AppendUint32(le.AppendUint32(seed, a), b), a^b)
		}
	}
	f.Add(seed, uint32(0x3f666666), uint32(0x3c23d70a))
	f.Add(seed[:12*19], uint32(0), uint32(0x3f800000))
	f.Add(seed[:12*8], uint32(0x7fc00007), uint32(0xffc00009))
	f.Fuzz(func(t *testing.T, data []byte, mu, lr uint32) {
		n := len(data) / 12
		w, vel, g := make([]float32, n), make([]float32, n), make([]float32, n)
		for i := range w {
			w[i] = math.Float32frombits(le.Uint32(data[12*i:]))
			vel[i] = math.Float32frombits(le.Uint32(data[12*i+4:]))
			g[i] = math.Float32frombits(le.Uint32(data[12*i+8:]))
		}
		checkStep(t, "step", w, vel, g, math.Float32frombits(mu), math.Float32frombits(lr))
	})
}

// BenchmarkSGDStep times the step alone at the wide_* model's length, Go
// reference against the active set (run with -cpu 1: a kernel is kept
// only where it beats its reference).
func BenchmarkSGDStep(b *testing.B) {
	const n = 476032
	rng := rand.New(rand.NewSource(1))
	w, vel, g := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range g {
		w[i], g[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
	}
	for _, k := range []struct {
		name string
		set  kernels
	}{{"go", scalar}, {"active", active}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(20 * n)
			for i := 0; i < b.N; i++ {
				k.set.step(w, vel, g, 0.9, 0.01)
			}
		})
	}
}
