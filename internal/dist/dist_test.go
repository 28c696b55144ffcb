package dist

import (
	"math"
	"strings"
	"testing"

	"fftgrad/internal/collective"
	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/guard"
	"fftgrad/internal/models"
	"fftgrad/internal/netsim"
	"fftgrad/internal/nn"
	"fftgrad/internal/obs"
	"fftgrad/internal/optim"
	"fftgrad/internal/sparsify"
)

// blobCfg returns a fast-converging baseline config: MLP on Gaussian
// blobs, 4 workers.
func blobCfg(seed int64) Config {
	train, test := data.GaussianBlobs(2560, 4, 16, 0.25, seed).Split(2048)
	return Config{
		Workers:  4,
		Batch:    16,
		Epochs:   3,
		Seed:     seed,
		Momentum: 0.9,
		LR:       optim.ConstLR(0.05),
		Model: func(s int64) *nn.Network {
			return models.MLP(16, 32, 4, s)
		},
		Train:  train,
		Test:   test,
		Fabric: netsim.InfiniBandFDR,
	}
}

func TestTrainFP32Converges(t *testing.T) {
	res, err := Train(blobCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("epochs recorded %d", len(res.Epochs))
	}
	first := res.Epochs[0]
	last := res.Epochs[len(res.Epochs)-1]
	if last.TrainLoss >= first.TrainLoss {
		t.Fatalf("loss did not fall: %g -> %g", first.TrainLoss, last.TrainLoss)
	}
	if last.TestAcc < 0.9 {
		t.Fatalf("final accuracy %.3f < 0.9", last.TestAcc)
	}
	if res.CompressionRatio != 1 {
		t.Fatalf("fp32 ratio %g", res.CompressionRatio)
	}
	if res.ComputeSeconds <= 0 || res.CommSeconds <= 0 {
		t.Fatalf("timing not recorded: compute=%g comm=%g", res.ComputeSeconds, res.CommSeconds)
	}
}

func TestTrainWithFFTCompression(t *testing.T) {
	cfg := blobCfg(3)
	cfg.NewCompressor = func() compress.Compressor { return compress.NewFFT(0.5) }
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Epochs[len(res.Epochs)-1]
	if last.TestAcc < 0.85 {
		t.Fatalf("fft θ=0.5 final accuracy %.3f", last.TestAcc)
	}
	if res.CompressionRatio < 1.5 {
		t.Fatalf("fft compression ratio %.2f too low", res.CompressionRatio)
	}
	// Compression must shrink modeled communication vs FP32.
	base, err := Train(blobCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.CommSeconds >= base.CommSeconds {
		t.Fatalf("compressed comm %.6f not below fp32 %.6f", res.CommSeconds, base.CommSeconds)
	}
}

// Theorem 3.4's error floor: θ=0.99 must converge visibly worse than
// θ=0.3 under the same budget. The floor shows in training loss on a task
// hard enough not to saturate (high-noise blobs, 8 classes).
func TestThetaErrorFloorOrdering(t *testing.T) {
	run := func(theta float64) float64 {
		train, test := data.GaussianBlobs(2560, 8, 16, 1.0, 44).Split(2048)
		cfg := blobCfg(4)
		cfg.Train, cfg.Test = train, test
		cfg.Epochs = 3
		cfg.Model = func(s int64) *nn.Network { return models.MLP(16, 32, 8, s) }
		cfg.NewCompressor = func() compress.Compressor { return compress.NewTopK(theta) }
		res, err := Train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Epochs[len(res.Epochs)-1].TrainLoss
	}
	low := run(0.3)
	high := run(0.99)
	if high <= low {
		t.Fatalf("θ=0.99 loss %.4f should exceed θ=0.3 loss %.4f", high, low)
	}
}

// Theorem 3.5's recovery: an aggressive θ whose schedule drops to 0
// mid-run must end close to the lossless baseline.
func TestThetaRecoverySchedule(t *testing.T) {
	cfg := blobCfg(5)
	cfg.Epochs = 4
	cfg.NewCompressor = func() compress.Compressor { return compress.NewTopK(0.99) }
	cfg.ThetaSchedule = sparsify.StepDrop{Initial: 0.99, Final: 0, DropEpoch: 2}
	rec, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := blobCfg(5)
	base.Epochs = 4
	baseRes, err := Train(base)
	if err != nil {
		t.Fatal(err)
	}
	recAcc := rec.Epochs[len(rec.Epochs)-1].TestAcc
	baseAcc := baseRes.Epochs[len(baseRes.Epochs)-1].TestAcc
	if recAcc < baseAcc-0.05 {
		t.Fatalf("recovered acc %.3f too far below baseline %.3f", recAcc, baseAcc)
	}
}

func TestAlphaMeasurement(t *testing.T) {
	cfg := blobCfg(6)
	cfg.Epochs = 1
	cfg.MeasureAlpha = true
	cfg.NewCompressor = func() compress.Compressor { return compress.NewFFT(0.85) }
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alpha) != res.Iterations {
		t.Fatalf("alpha samples %d != iterations %d", len(res.Alpha), res.Iterations)
	}
	for i, a := range res.Alpha {
		if a < 0 || a > 1 || math.IsNaN(a) {
			t.Fatalf("α[%d]=%g violates Assumption 3.2 band", i, a)
		}
	}
}

func TestGradientSampling(t *testing.T) {
	cfg := blobCfg(7)
	cfg.Epochs = 1
	cfg.SampleGradients = 10
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := (res.Iterations + 9) / 10
	if len(res.GradSamples) != want {
		t.Fatalf("samples %d want %d", len(res.GradSamples), want)
	}
	for _, g := range res.GradSamples {
		if len(g) != res.GradSize {
			t.Fatalf("sample length %d != grad size %d", len(g), res.GradSize)
		}
	}
}

func TestSingleWorker(t *testing.T) {
	cfg := blobCfg(8)
	cfg.Workers = 1
	cfg.Epochs = 2
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[len(res.Epochs)-1].TestAcc < 0.85 {
		t.Fatalf("single-worker accuracy %.3f", res.Epochs[len(res.Epochs)-1].TestAcc)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Train(Config{}); err == nil {
		t.Fatal("empty config should error")
	}
}

// TestValidateRejects lists every mode combination Config.Validate
// refuses, with the text that names the conflict; Train must return it
// before building a rank.
func TestValidateRejects(t *testing.T) {
	fault := func(f FaultConfig) *FaultConfig {
		f.Cluster = faultClusterCfg()
		return &f
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"nil Model", func(c *Config) { c.Model = nil }, "Model and Train dataset are required"},
		{"nil Train", func(c *Config) { c.Train = nil }, "Model and Train dataset are required"},
		{"unknown strategy", func(c *Config) {
			c.Collective = &collective.Config{Strategy: "mesh"}
		}, `unknown strategy "mesh"`},
		{"gossip without Fault", func(c *Config) {
			c.Collective = &collective.Config{Strategy: collective.Gossip}
		}, "set Fault"},
		{"gossip + buckets", func(c *Config) {
			c.Collective = &collective.Config{Strategy: collective.Gossip, BucketBytes: 4096}
			c.Fault = fault(FaultConfig{})
		}, "gossip exchanges whole gradients"},
		{"Fault + MeasureAlpha", func(c *Config) {
			c.Fault, c.MeasureAlpha = fault(FaultConfig{}), true
		}, "MeasureAlpha requires the barrier-based exchange"},
		{"negative staleness", func(c *Config) {
			c.Fault = fault(FaultConfig{Staleness: -1})
		}, "negative Fault.Staleness -1"},
		{"discount above one", func(c *Config) {
			c.Fault = fault(FaultConfig{Staleness: 2, StalenessDiscount: 1.5})
		}, "StalenessDiscount 1.5 outside (0,1]"},
		{"negative discount", func(c *Config) {
			c.Fault = fault(FaultConfig{Staleness: 2, StalenessDiscount: -0.5})
		}, "StalenessDiscount -0.5 outside (0,1]"},
		{"negative join iteration", func(c *Config) {
			c.Fault = fault(FaultConfig{ElasticJoins: []int{4, -3}})
		}, "negative ElasticJoins iteration -3"},
		{"batch above the smallest shard", func(c *Config) {
			c.Train, c.Test, c.Workers, c.Batch = data.GaussianBlobs(8, 4, 16, 0.25, 1), nil, 2, 8
		}, "Batch 8 exceeds the smallest shard: 8 samples over 2 ranks leave 4"},
		{"default batch above the smallest shard", func(c *Config) {
			c.Train, c.Test, c.Workers, c.Batch = data.GaussianBlobs(40, 4, 16, 0.25, 1), nil, 2, 0
		}, "Batch 32 exceeds the smallest shard: 40 samples over 2 ranks leave 20"},
		{"batch above an elastic joiner's shard", func(c *Config) {
			c.Batch, c.Fault = 400, fault(FaultConfig{ElasticJoins: []int{2, 4}})
		}, "Batch 400 exceeds the smallest shard: 2048 samples over 6 ranks leave 341"},
		{"rollback at the skip rung", func(c *Config) {
			c.Guard = &guard.Config{Detect: true, RollbackAfter: guard.SkipAfter}
		}, "Guard.RollbackAfter 3 must exceed guard.SkipAfter 3"},
		{"PS + Fault", func(c *Config) {
			c.PS, c.Fault = &PSConfig{}, fault(FaultConfig{})
		}, "require the bsp backend"},
		{"PS + theta schedule", func(c *Config) {
			c.PS, c.ThetaSchedule = &PSConfig{}, sparsify.StepDrop{Initial: 0.9, DropEpoch: 1}
		}, "require the bsp backend"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := blobCfg(1)
			tc.mut(&cfg)
			_, err := Train(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Train returned %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestCNNSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN training is slow")
	}
	train, test := data.SynthImages(384, 4, 16, 0.3, 9).Split(256)
	cfg := Config{
		Workers: 2, Batch: 16, Epochs: 2, Seed: 9,
		Momentum: 0.9,
		LR:       optim.ConstLR(0.02),
		Model: func(s int64) *nn.Network {
			return models.TinyCNN(4, 16, s)
		},
		Train: train, Test: test,
		NewCompressor: func() compress.Compressor { return compress.NewFFT(0.7) },
		Fabric:        netsim.CometCluster(),
	}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[len(res.Epochs)-1].TrainLoss >= res.Epochs[0].TrainLoss+0.1 {
		t.Fatalf("CNN loss not improving: %v", res.Epochs)
	}
}

// TestTraceRecording: the profiler's rank-0 records are the run's
// per-iteration breakdown: one per iteration, in order, each with its
// stage times and message, and together the result's measured totals
// (to the nanosecond rounding of each record).
func TestTraceRecording(t *testing.T) {
	cfg := blobCfg(33)
	cfg.Epochs = 1
	cfg.Profiler = obs.New(cfg.Tracks(), 0)
	cfg.NewCompressor = func() compress.Compressor { return compress.NewFFT(0.85) }
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := cfg.Profiler.Records(0)
	if len(recs) != res.Iterations {
		t.Fatalf("records %d != iterations %d", len(recs), res.Iterations)
	}
	var compute, codec, exchange int64
	for i, r := range recs {
		if r.Iter != int64(i) {
			t.Fatalf("record %d has iter %d", i, r.Iter)
		}
		if r.ComputeNs <= 0 || r.CompressNs <= 0 || r.MsgBytes <= 0 {
			t.Fatalf("record %d incomplete: %+v", i, r)
		}
		compute += r.ComputeNs + r.UpdateNs
		codec += r.CompressNs + r.DecompressNs
		exchange += r.ExchangeNs
	}
	for _, c := range []struct {
		name      string
		ns        int64
		resultSec float64
	}{
		{"compute+update", compute, res.ComputeSeconds},
		{"compress+decompress", codec, res.CompressSeconds},
		{"exchange", exchange, res.CommMeasuredSeconds},
	} {
		if d := math.Abs(float64(c.ns)/1e9 - c.resultSec); d > 1e-6 {
			t.Errorf("%s: records sum to %vs, result %vs", c.name, float64(c.ns)/1e9, c.resultSec)
		}
	}
}

// Checkpoint + Resume: training resumed from a completed run's final
// checkpoint must continue improving from the restored state, and a
// resume state whose velocity does not fit the model is an error, not a
// panic.
func TestCheckpointResume(t *testing.T) {
	cfg := blobCfg(34)
	cfg.Epochs = 2
	first, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	captured := first.Final
	if len(captured.Params) != first.GradSize {
		t.Fatalf("captured %d params for grad size %d", len(captured.Params), first.GradSize)
	}

	resumed := blobCfg(34)
	resumed.Epochs = 2
	resumed.Resume = captured
	second, err := Train(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if second.Epochs[len(second.Epochs)-1].TrainLoss >= first.Epochs[len(first.Epochs)-1].TrainLoss {
		t.Fatalf("resumed run should keep improving: %.4f vs %.4f",
			second.Epochs[len(second.Epochs)-1].TrainLoss,
			first.Epochs[len(first.Epochs)-1].TrainLoss)
	}

	short := *captured
	short.Velocity = short.Velocity[:len(short.Velocity)-1]
	resumed.Resume = &short
	if _, err := Train(resumed); err == nil || !strings.Contains(err.Error(), "velocity") {
		t.Fatalf("resuming with a short velocity: %v, want a velocity length error", err)
	}
}
