package feedback

import (
	"testing"

	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/dist"
	"fftgrad/internal/models"
	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
)

func TestMomentumCorrectedName(t *testing.T) {
	c := NewMomentumCorrected(compress.NewTopK(0.9), 0.9)
	if c.Name() != "topk+mc" {
		t.Fatalf("name %q", c.Name())
	}
}

// With a lossless inner compressor, the wrapper must reproduce classical
// momentum exactly: transmitted update u_t = m·u_{t-1} + g_t.
func TestMomentumCorrectedLosslessEqualsMomentum(t *testing.T) {
	c := NewMomentumCorrected(compress.FP32{}, 0.5)
	g := []float32{1, -2}
	want := [][]float32{{1, -2}, {1.5, -3}, {1.75, -3.5}}
	for step, w := range want {
		msg, err := c.AppendCompress(nil, g)
		if err != nil {
			t.Fatal(err)
		}
		rec := make([]float32, 2)
		if err := c.DecompressInto(rec, msg); err != nil {
			t.Fatal(err)
		}
		for i := range w {
			if rec[i] != w[i] {
				t.Fatalf("step %d idx %d: %g want %g", step, i, rec[i], w[i])
			}
		}
	}
}

func TestMomentumCorrectedLengthChange(t *testing.T) {
	c := NewMomentumCorrected(compress.NewTopK(0.5), 0.9)
	if _, err := c.AppendCompress(nil, make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendCompress(nil, make([]float32, 9)); err == nil {
		t.Fatal("length change should error")
	}
}

// End-to-end sanity at an aggressive θ with the optimizer's momentum
// moved into the wrapper. At this toy scale momentum correction does not
// reliably beat vanilla-with-momentum (DGC's wins are demonstrated on
// long ImageNet runs at 99.9% sparsity), so the robust assertions are:
// training makes progress, stays in the same loss regime as vanilla, and
// — measured at seed 21 — avoids raw error-feedback's momentum blowup.
func TestMomentumCorrectedTrains(t *testing.T) {
	train, test := data.GaussianBlobs(2560, 8, 16, 1.0, 21).Split(2048)
	run := func(newC func() compress.Compressor, optMomentum float64) (first, last float64) {
		res, err := dist.Train(dist.Config{
			Workers: 4, Batch: 16, Epochs: 3, Seed: 21,
			Momentum:      optMomentum,
			LR:            optim.ConstLR(0.05),
			Model:         func(s int64) *nn.Network { return models.MLP(16, 32, 8, s) },
			Train:         train,
			Test:          test,
			NewCompressor: newC,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Epochs[0].TrainLoss, res.Epochs[len(res.Epochs)-1].TrainLoss
	}
	const theta = 0.999
	_, vanilla := run(func() compress.Compressor { return compress.NewTopK(theta) }, 0.9)
	_, rawEF := run(func() compress.Compressor { return New(compress.NewTopK(theta)) }, 0.9)
	first, corrected := run(func() compress.Compressor {
		return NewMomentumCorrected(compress.NewTopK(theta), 0.9)
	}, 0) // momentum lives in the wrapper
	if corrected >= first {
		t.Fatalf("momentum-corrected training made no progress: %.4f -> %.4f", first, corrected)
	}
	if corrected > vanilla*3 {
		t.Fatalf("momentum-corrected loss %.4f far above vanilla %.4f", corrected, vanilla)
	}
	if corrected >= rawEF {
		t.Fatalf("momentum correction %.4f should fix raw EF's momentum blowup %.4f", corrected, rawEF)
	}
}
