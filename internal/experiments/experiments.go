// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a named, self-contained function that
// runs its workload (real training and compression on the CPU, network
// costs priced through internal/netsim) and prints the series/rows the
// corresponding paper figure plots, plus a PASS/CHECK line for the
// qualitative property the figure is meant to demonstrate.
//
// EXPERIMENTS.md records paper-reported vs measured values; DESIGN.md
// maps experiments to modules.
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"fftgrad/internal/compress"
	"fftgrad/internal/perfmodel"
)

// Options configures an experiment run.
type Options struct {
	// Out receives the experiment's report. Required.
	Out io.Writer
	// Quick shrinks workloads for tests and smoke runs.
	Quick bool
	// Seed drives all randomness.
	Seed int64
}

func (o Options) printf(format string, args ...interface{}) {
	fmt.Fprintf(o.Out, format, args...)
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) error
}

// All returns every experiment: the paper's figures/tables in paper
// order, then the design-choice ablations DESIGN.md calls out.
func All() []Experiment {
	return append(paperExperiments(), ablations()...)
}

func paperExperiments() []Experiment {
	return []Experiment{
		{"fig2", "Layer-wise communication vs computation (AlexNet, ResNet32)", Fig2},
		{"fig4", "Histogram of DNN gradients during training", Fig4},
		{"fig5", "FFT top-k vs direct top-k sparsification error", Fig5},
		{"fig6", "Status-vector overhead vs compression ratio", Fig6},
		{"fig7", "Quantization schemes: uniform, IEEE-754, range-based", Fig7},
		{"fig9", "Adjustable representation range of the quantizer", Fig9},
		{"fig10", "Minimal beneficial compression ratio vs network speed", Fig10},
		{"fig11", "Allgather latency from 2 to 32 GPUs", Fig11},
		{"fig12", "Empirical verification of Assumption 3.2 (alpha)", Fig12},
		{"fig13", "Theorem validation: fixed vs diminishing theta", Fig13},
		{"fig13cnn", "Theorem validation on a convolutional network", Fig13CNN},
		{"fig14", "Training wall time on an 8-GPU cluster", Fig14},
		{"table2", "Final accuracy and speedup over lossless SGD", Table2},
		{"fig15", "Reconstructed gradient distributions and error CDF", Fig15},
		{"fig16", "Weak scaling from 2 to 32 GPUs", Fig16},
	}
}

// ByID looks an experiment up by its identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// Shared method descriptors and modeled-cost helpers.

// gpuEffFLOPS is the sustained FP32 rate assumed for a P100-class GPU when
// converting model FLOPs into modeled compute seconds (peak 9.3 TFLOPS at
// roughly one-third efficiency).
const gpuEffFLOPS = 3e12

// rngQuantThroughput is the stochastic quantizers' (QSGD, TernGrad) Tm:
// per-element RNG plus branchy encoding runs well below the bandwidth-
// bound conversion rate of GPUReference.
const rngQuantThroughput = 30e9

// method bundles one compression algorithm with its constructor and the
// primitive rates its pipeline runs at, priced by perfmodel's Eq. 1. A
// stage the method does not run is +Inf: it costs nothing.
type method struct {
	name string
	new  func() compress.Compressor
	tp   perfmodel.Throughputs
}

// paperMethods returns the five evaluated algorithms at the paper's
// settings: θ=0.85 for both sparsifiers, 10-bit range quantization for
// FFT, s=3 (3-bit) QSGD, 2-bit TernGrad, with the reference GPU rates.
func paperMethods() []method {
	gpu, free := perfmodel.GPUReference(), math.Inf(1)
	quant := perfmodel.Throughputs{Tm: rngQuantThroughput, Tf: free, Tp: gpu.Tp, Ts: free}
	return []method{
		{"fp32", func() compress.Compressor { return compress.FP32{} },
			perfmodel.Throughputs{Tm: free, Tf: free, Tp: free, Ts: free}},
		{"fft", func() compress.Compressor { return compress.NewFFT(0.85) }, gpu},
		{"topk", func() compress.Compressor { return compress.NewTopK(0.85) },
			perfmodel.Throughputs{Tm: free, Tf: free, Tp: gpu.Tp, Ts: gpu.Ts}},
		{"qsgd", func() compress.Compressor { return compress.NewQSGD(3) }, quant},
		{"terngrad", func() compress.Compressor { return compress.NewTernGrad() }, quant},
	}
}

// measuredRatio compresses a correlated gradient-like vector and returns
// the achieved compression ratio (honest accounting: bitmaps and headers
// included). Ratios are nearly size-independent, so a 1M-element probe
// stands in for the full-size gradient.
func measuredRatio(m method, n int, seed int64) (float64, error) {
	g := correlatedGradient(n, seed)
	c := m.new()
	msg, err := c.AppendCompress(nil, g)
	if err != nil {
		return 0, err
	}
	return compress.Ratio(len(g), msg), nil
}

// correlatedGradient synthesizes a gradient with the spatial correlation
// real DNN gradients exhibit (an AR(1) field plus white noise).
func correlatedGradient(n int, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	x := make([]float32, n)
	v := 0.0
	for i := range x {
		v = 0.97*v + 0.03*r.NormFloat64()
		x[i] = float32(0.1*v + 0.002*r.NormFloat64())
	}
	return x
}

// iterTime models one BSP iteration of a full-size network: measured-free,
// fully priced. computeS is the per-iteration compute, m the FP32 gradient
// bytes, ratio the method's compression ratio, t its pipeline's rates
// (paid by sender and receiver), ag the allgather pricer.
func iterTime(computeS float64, m int, ratio float64, t perfmodel.Throughputs, ag func(n, m int) float64, workers int) float64 {
	comm := ag(workers, int(float64(m)/ratio))
	return computeS + comm + 2*perfmodel.CompressionCost(m, t)
}

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
