package optim

import (
	"math"
	"math/rand"
	"testing"

	"fftgrad/internal/parallel"
)

func TestSGDNoMomentum(t *testing.T) {
	s := NewSGD(0.1, 0, 3)
	delta := s.Delta(make([]float32, 3), []float32{1, -2, 0})
	want := []float32{-0.1, 0.2, 0}
	for i := range want {
		if math.Abs(float64(delta[i]-want[i])) > 1e-7 {
			t.Fatalf("delta[%d]=%g want %g", i, delta[i], want[i])
		}
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	s := NewSGD(1, 0.5, 1)
	d1 := s.Delta(make([]float32, 1), []float32{1})[0] // v=1, d=-1
	d2 := s.Delta(make([]float32, 1), []float32{1})[0] // v=1.5, d=-1.5
	d3 := s.Delta(make([]float32, 1), []float32{0})[0] // v=0.75, d=-0.75
	if d1 != -1 || d2 != -1.5 || d3 != -0.75 {
		t.Fatalf("momentum sequence %g %g %g", d1, d2, d3)
	}
}

func TestSGDLengthPanics(t *testing.T) {
	s := NewSGD(0.1, 0.9, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Delta(make([]float32, 4), make([]float32, 3))
}

// SGD with momentum must descend a quadratic faster than plain SGD, the
// textbook sanity check.
func TestMomentumAcceleratesQuadratic(t *testing.T) {
	run := func(momentum float64) float64 {
		s := NewSGD(0.02, momentum, 1)
		x := float32(10.0)
		d := make([]float32, 1)
		for i := 0; i < 100; i++ {
			g := []float32{2 * x} // f(x)=x², f'(x)=2x
			s.Delta(d, g)
			x += d[0]
		}
		return math.Abs(float64(x))
	}
	plain := run(0)
	mom := run(0.9)
	if mom >= plain {
		t.Fatalf("momentum %g not faster than plain %g", mom, plain)
	}
}

// TestSGDStepMatchesDeltaAdd pins the fused step against Delta followed
// by a per-parameter AddToParams loop on raw bits: a flat vector of
// parameter windows of odd sizes around the parallel grain, cut by a
// three-worker split at arbitrary points; parameters, velocities and
// gradients holding ±0, subnormals, ±Inf and NaN; three steps with the
// rate and momentum changed between them.
func TestSGDStepMatchesDeltaAdd(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(3))
	rng := rand.New(rand.NewSource(30))
	special := func() float32 {
		switch rng.Intn(10) {
		case 0:
			return float32(math.Copysign(0, float64(rng.Intn(2))-0.5))
		case 1:
			return math.Float32frombits(uint32(rng.Int31n(1<<23)) | uint32(rng.Intn(2))<<31)
		case 2:
			return float32(math.Inf(rng.Intn(2)*2 - 1))
		case 3:
			return float32(math.NaN())
		}
		return float32(rng.NormFloat64())
	}
	sizes := []int{1, 7, stepGrain - 3, 560, stepGrain + 5, 0, 3*stepGrain + 11, 2, 1}
	n := 0
	for _, s := range sizes {
		n += s
	}
	fused, ref := NewSGD(0, 0, n), NewSGD(0, 0, n)
	flat := make([]float32, n)
	var got, want [][]float32
	off := 0
	for _, s := range sizes {
		p := flat[off : off+s : off+s]
		for i := range p {
			p[i] = special()
		}
		got, want = append(got, p), append(want, append([]float32(nil), p...))
		off += s
	}
	for i := range fused.velocity {
		fused.velocity[i] = special()
	}
	copy(ref.velocity, fused.velocity)
	same := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b) }
	grad, delta := make([]float32, n), make([]float32, n)
	for step, hp := range [][2]float64{{0.01, 0.9}, {0.5, 0}, {1e-3, 0.99}} {
		for i := range grad {
			grad[i] = special()
		}
		fused.LR, fused.Momentum = hp[0], hp[1]
		ref.LR, ref.Momentum = hp[0], hp[1]
		fused.Step(flat, grad)
		ref.Delta(delta, grad)
		off := 0
		for _, p := range want { // nn.Network.AddToParams
			for i := range p {
				p[i] += delta[off+i]
			}
			off += len(p)
		}
		for i := range ref.velocity {
			if !same(fused.velocity[i], ref.velocity[i]) {
				t.Fatalf("step %d velocity %d: %#x, reference %#x", step, i,
					math.Float32bits(fused.velocity[i]), math.Float32bits(ref.velocity[i]))
			}
		}
		for k := range want {
			for i := range want[k] {
				if !same(got[k][i], want[k][i]) {
					t.Fatalf("step %d param %d[%d]: %#x, reference %#x", step, k, i,
						math.Float32bits(got[k][i]), math.Float32bits(want[k][i]))
				}
			}
		}
	}
}
