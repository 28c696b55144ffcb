package main

import (
	"fftgrad/internal/cluster"
	"fftgrad/internal/collective"
	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/dist"
	"fftgrad/internal/guard"
	"fftgrad/internal/models"
	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
)

// Sizing constants shared by every workload. They are fixed, not derived
// from the host: the box this was sized on has two cores, so P = 2 ranks
// run as goroutines with GOMAXPROCS untouched.
const (
	ranks       = 2   // P
	blockIters  = 4   // iterations per block (dist.Config.ItersPerEpoch)
	warmBlocks  = 3   // FFT plans, quantizer tuning, scratch pools; part of setup_s
	budgetIters = 200 // fixed sample budget the deterministic metrics are read at
	lossTail    = 40  // loss_at_budget averages timed iterations budgetIters-lossTail+1..budgetIters
	rollBlocks  = 10  // rolling-mean width of time_to_target_s
	// The gated timings are read over the quietest quietIters consecutive
	// iterations of the window. Twenty is two full parameter-sync periods,
	// so the stretch cannot dodge the periodic work.
	quietIters = 2 * syncEvery
	theta      = 0.85
	momentum   = 0.9
	syncEvery  = 10
)

// budgetBlocks is the number of timed blocks every run completes even
// when -seconds elapses earlier, so loss_at_budget is always defined.
const budgetBlocks = budgetIters / blockIters

const quietBlocks = quietIters / blockIters

// workload is one named training configuration. The program under test
// sees only the generated dataset and model.
type workload struct {
	name string // BENCHMARK.json carries the reason each one exists

	model func(seed int64) *nn.Network
	data  func(seed int64) *data.Dataset
	batch int
	lr    float64
	codec func() compress.Compressor

	guarded bool // trainer -guard defaults
	fault   bool // failure-aware cluster path, no chaos
	bucket  int  // collective.Config.BucketBytes; 0 = monolithic

	target float64 // time_to_target_s loss target, calibrated on the seed commit

	// The layers this workload exists to stress, and the least share of
	// the replayed iteration they must take for it to still do so.
	stress      []string
	stressShare float64
}

// lossless reports whether the workload ships raw FP32.
func (w workload) lossless() bool { return w.codec().Name() == "fp32" }

func wideModel(seed int64) *nn.Network { return models.MLP(256, 560, 32, seed) }

// The datasets are generated with the 64 held-out samples a trainer would
// test on and trained without them (Test is nil: evaluation is not part of
// an iteration).
func wideData(seed int64) *data.Dataset {
	train, _ := data.GaussianBlobs(8192+64, 32, 256, 3.0, seed).Split(8192)
	return train
}

func convModel(seed int64) *nn.Network { return models.AlexNetStyle(10, 2, seed) }

func convData(seed int64) *data.Dataset {
	train, _ := data.SynthImages(2048+64, 10, 32, 1.6, seed).Split(2048)
	return train
}

func fftCodec() compress.Compressor  { return compress.NewFFT(theta) }
func fp32Codec() compress.Compressor { return compress.FP32{} }

var workloads = []workload{
	{
		name:  "wide_fft",
		model: wideModel, data: wideData, batch: 4, lr: 0.001, codec: fftCodec,
		target: 1.5,
		stress: []string{"compress.encode_ms", "compress.decode_avg_ms"}, stressShare: 0.70,
	},
	{
		name:  "wide_fp32",
		model: wideModel, data: wideData, batch: 4, lr: 0.001, codec: fp32Codec,
		target: 0.8,
	},
	{
		name:  "conv_fft",
		model: convModel, data: convData, batch: 4, lr: 0.0005, codec: fftCodec,
		target: 1.0,
		stress: []string{"nn.fwd_bwd_ms"}, stressShare: 0.60,
	},
	{
		name:  "fault_fft",
		model: wideModel, data: wideData, batch: 4, lr: 0.001, codec: fftCodec,
		guarded: true, fault: true,
		target: 1.5,
	},
	{
		name:  "bucket_fft",
		model: wideModel, data: wideData, batch: 4, lr: 0.001, codec: fftCodec,
		bucket: 256 << 10,
		target: 1.5,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// guardConfig is what `trainer -guard` builds from its flag defaults.
func guardConfig() *guard.Config {
	return &guard.Config{CRC: true, Scrub: guard.ScrubClamp, Detect: true, DriftEvery: 50, RollbackAfter: 6}
}

// config builds the dist.Config of one run; the caller adds Epochs, Stop
// and OnEpoch. Observability (Telemetry, Tracer, Profiler, Trace) stays off.
func (w workload) config(seed int64, train *data.Dataset) dist.Config {
	cfg := dist.Config{
		Workers:       ranks,
		Batch:         w.batch,
		ItersPerEpoch: blockIters,
		Seed:          seed,
		Momentum:      momentum,
		LR:            optim.ConstLR(w.lr),
		SyncEvery:     syncEvery,
		Model:         w.model,
		Train:         train,
		NewCompressor: w.codec,
	}
	if w.guarded {
		cfg.Guard = guardConfig()
	}
	if w.fault {
		cfg.Fault = &dist.FaultConfig{Cluster: cluster.Config{Seed: seed}}
	}
	if w.bucket > 0 {
		cfg.Collective = &collective.Config{Strategy: collective.Ring, BucketBytes: w.bucket}
	}
	return cfg
}
