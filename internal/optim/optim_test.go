package optim

import (
	"math"
	"testing"
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
