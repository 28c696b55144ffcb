package guard

import (
	"math"
	"runtime/debug"
	"testing"

	"fftgrad/internal/compress"
	"fftgrad/internal/feedback"
	"fftgrad/internal/telemetry"
)

// stackGrad builds a deterministic pseudo-gradient with mixed scales.
func stackGrad(n int) []float32 {
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(math.Sin(float64(i)*0.7) * math.Exp(-float64(i%997)/500))
	}
	return g
}

// base is what the capability walk must reach at the bottom of a stack.
type base interface {
	compress.Compressor
	Theta() float64
}

// TestCapabilitiesReachTheirLayer builds every decorator stack the
// trainer can (framing outermost, one feedback wrapper or none) over the
// two sparsifiers and checks that each optional capability, resolved by
// compress.As, lands on the layer that implements it: θ and the stage
// timer on the base codec, the residual sinks on feedback.Compressor and
// nowhere when the stack has none.
func TestCapabilitiesReachTheirLayer(t *testing.T) {
	type (
		sink       interface{ AddToResidual([]float32) }
		scaledSink interface {
			AddToResidualScaled([]float32, float32)
		}
	)
	bases := []func() base{
		func() base { return compress.NewFFT(0.9) },
		func() base { return compress.NewTopK(0.9) },
	}
	stacks := []struct {
		name  string
		build func(b base) (compress.Compressor, *feedback.Compressor)
	}{
		{"framed", func(b base) (compress.Compressor, *feedback.Compressor) {
			return NewFramed(b, true), nil
		}},
		{"ef", func(b base) (compress.Compressor, *feedback.Compressor) {
			ef := feedback.New(b)
			return ef, ef
		}},
		{"mc", func(b base) (compress.Compressor, *feedback.Compressor) {
			return feedback.NewMomentumCorrected(b, 0.9), nil
		}},
		{"framed(ef)", func(b base) (compress.Compressor, *feedback.Compressor) {
			ef := feedback.New(b)
			return NewFramed(ef, true), ef
		}},
		{"framed(mc)", func(b base) (compress.Compressor, *feedback.Compressor) {
			return NewFramed(feedback.NewMomentumCorrected(b, 0.9), false), nil
		}},
	}
	grad := stackGrad(512)
	for _, newBase := range bases {
		for _, s := range stacks {
			b := newBase()
			c, ef := s.build(b)
			t.Run(s.name+"/"+b.Name(), func(t *testing.T) {
				ts, ok := compress.As[compress.ThetaSetter](c)
				if !ok {
					t.Fatal("SetTheta: no layer found")
				}
				if ts.SetTheta(0.25); b.Theta() != 0.25 {
					t.Errorf("SetTheta did not reach the base codec: θ = %v", b.Theta())
				}

				st := telemetry.NewStageTimer()
				compress.Instrument(c, st)
				msg, err := c.AppendCompress(nil, grad)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.DecompressInto(make([]float32, len(grad)), msg); err != nil {
					t.Fatal(err)
				}
				if st.Samples(telemetry.StageSelect) == 0 {
					t.Error("Instrument did not reach the base codec: no StageSelect samples")
				}

				plain, okPlain := compress.As[sink](c)
				scaled, okScaled := compress.As[scaledSink](c)
				if ef == nil {
					if okPlain || okScaled {
						t.Error("a stack without error feedback exposes a residual sink")
					}
					return
				}
				if !okPlain || !okScaled {
					t.Fatalf("residual sinks not found: plain %v, scaled %v", okPlain, okScaled)
				}
				// A fresh stack of the same shape, so the residual starts empty.
				c, ef = s.build(newBase())
				plain, _ = compress.As[sink](c)
				scaled, _ = compress.As[scaledSink](c)
				one := make([]float32, len(grad))
				for i := range one {
					one[i] = 1
				}
				plain.AddToResidual(one)
				scaled.AddToResidualScaled(one, 2)
				if got, want := ef.ResidualNorm(), 3*math.Sqrt(float64(len(one))); math.Abs(got-want) > 1e-9*want {
					t.Errorf("residual norm %v after AddToResidual(1)+AddToResidualScaled(1, 2), want %v", got, want)
				}
			})
		}
	}
}

// TestDecoratedRoundTripZeroAlloc extends compress's TestZeroAllocRoundTrip
// to the decorators: CRC framing and both feedback wrappers add no
// steady-state heap allocations to the AppendCompress + DecompressInto
// round trip, with live telemetry attached.
func TestDecoratedRoundTripZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	st := telemetry.NewStageTimer()
	grad := stackGrad(5000)
	rec := make([]float32, len(grad))
	for _, c := range []compress.Compressor{
		NewFramed(compress.NewFFT(0.85), true),
		feedback.New(compress.NewFFT(0.85)),
		feedback.NewMomentumCorrected(compress.NewTopK(0.85), 0.9),
		NewFramed(feedback.New(compress.NewFFT(0.85)), true),
	} {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			compress.Instrument(c, st)
			var msg []byte
			roundTrip := func() {
				var err error
				if msg, err = c.AppendCompress(msg[:0], grad); err != nil {
					t.Fatal(err)
				}
				if err := c.DecompressInto(rec, msg); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ { // warm pools, plan caches, quantizer tuning
				roundTrip()
			}
			// A GC pass during measurement would clear the scratch pools.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			if n := testing.AllocsPerRun(50, roundTrip); n != 0 {
				t.Errorf("steady-state round trip allocates %.2f allocs/op, want 0", n)
			}
		})
	}
}
