package experiments

import (
	"fftgrad/internal/data"
	"fftgrad/internal/dist"
	"fftgrad/internal/models"
	"fftgrad/internal/netsim"
	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
	"fftgrad/internal/stats"
)

// fullScaleIterSeconds prices one BSP iteration of a full-size network at
// 8 workers on the Comet-shaped cluster for the given method: GPU-modeled
// compute, pipeline cost per Eq. 1, allgather of the compressed message.
func fullScaleIterSeconds(p *models.CommProfile, m method, ratio float64, workers int) float64 {
	compute := p.TotalFLOPs() / gpuEffFLOPS
	return iterTime(compute, p.TotalGradBytes(), ratio, m.tp,
		netsim.CometCluster().Allgather, workers)
}

// accuracyRun trains each method on the same real workload and returns
// final test accuracy plus the per-epoch accuracy trace.
func accuracyRun(o Options, m method, train, test *data.Dataset, epochs int) (*dist.Result, error) {
	cfg := dist.Config{
		Workers: 4, Batch: 16, Epochs: epochs, Seed: o.Seed,
		Momentum:      0.9,
		LR:            optim.ConstLR(0.05),
		Model:         func(s int64) *nn.Network { return models.MLP(24, 48, 8, s) },
		Train:         train,
		Test:          test,
		NewCompressor: m.new,
	}
	return dist.Train(cfg)
}

// Table2 reproduces the summary table: final accuracy of each method on a
// real training run, and the modeled speedup over lossless SGD for the
// full-size AlexNet and ResNet32 workloads at 8 GPUs (paper: FFT 2.26x /
// 1.33x with the best accuracy; TernGrad fastest of the baselines but
// worst accuracy).
func Table2(o Options) error {
	epochs := 6
	if o.Quick {
		epochs = 3
	}
	train, test := data.GaussianBlobs(3584, 8, 24, 0.9, o.Seed).Split(3072)

	alex := models.AlexNetImageNetProfile()
	resnet := models.ResNet32CIFARProfile()
	const workers = 8

	type row struct {
		name                 string
		acc, ratio           float64
		alexIter, resnetIter float64
	}
	var rows []row
	for _, m := range paperMethods() {
		ratio, err := measuredRatio(m, 1<<20, o.Seed)
		if err != nil {
			return err
		}
		res, err := accuracyRun(o, m, train, test, epochs)
		if err != nil {
			return err
		}
		rows = append(rows, row{
			name:       m.name,
			acc:        res.Epochs[len(res.Epochs)-1].TestAcc,
			ratio:      ratio,
			alexIter:   fullScaleIterSeconds(alex, m, ratio, workers),
			resnetIter: fullScaleIterSeconds(resnet, m, ratio, workers),
		})
	}

	var base row
	for _, r := range rows {
		if r.name == "fp32" {
			base = r
		}
	}
	t := &stats.Table{Headers: []string{
		"method", "test acc", "Δacc vs SGD", "ratio", "AlexNet speedup", "ResNet32 speedup"}}
	get := func(name string) row {
		for _, r := range rows {
			if r.name == name {
				return r
			}
		}
		return row{}
	}
	for _, name := range []string{"fp32", "fft", "topk", "qsgd", "terngrad"} {
		r := get(name)
		t.AddRow(r.name, r.acc, r.acc-base.acc, r.ratio,
			base.alexIter/r.alexIter, base.resnetIter/r.resnetIter)
	}
	o.printf("Table 2 analogue (8 workers, accuracy from real runs, speedup from the full-scale model):\n%s", t.String())
	o.printf("paper reference: FFT +0.09%%/2.26x (AlexNet), -0.12%%/1.33x (ResNet32); all baselines lose ≥1.45%% accuracy\n\n")

	fft, topk, qsgd, tern := get("fft"), get("topk"), get("qsgd"), get("terngrad")
	bestBaseline := topk.acc
	if qsgd.acc > bestBaseline {
		bestBaseline = qsgd.acc
	}
	if tern.acc > bestBaseline {
		bestBaseline = tern.acc
	}
	o.printf("CHECK FFT accuracy within 3%% of lossless SGD: %v (%.3f vs %.3f)\n",
		fft.acc >= base.acc-0.03, fft.acc, base.acc)
	o.printf("CHECK FFT accuracy within noise (1.5%%) of the best lossy baseline: %v (fft %.3f; topk %.3f qsgd %.3f tern %.3f)\n",
		fft.acc >= bestBaseline-0.015, fft.acc, topk.acc, qsgd.acc, tern.acc)
	o.printf("CHECK FFT fastest end-to-end on AlexNet: %v (%.1fx vs topk %.1fx qsgd %.1fx tern %.1fx)\n",
		base.alexIter/fft.alexIter >= base.alexIter/topk.alexIter &&
			base.alexIter/fft.alexIter >= base.alexIter/qsgd.alexIter &&
			base.alexIter/fft.alexIter >= base.alexIter/tern.alexIter,
		base.alexIter/fft.alexIter, base.alexIter/topk.alexIter,
		base.alexIter/qsgd.alexIter, base.alexIter/tern.alexIter)
	o.printf("CHECK every compressed method beats lossless on AlexNet wall time: %v\n",
		fft.alexIter < base.alexIter && topk.alexIter < base.alexIter &&
			qsgd.alexIter < base.alexIter && tern.alexIter < base.alexIter)
	return nil
}
