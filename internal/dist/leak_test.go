package dist

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"fftgrad/internal/chaos"
	"fftgrad/internal/cluster"
	"fftgrad/internal/collective"
	"fftgrad/internal/compress"
	"fftgrad/internal/models"
	"fftgrad/internal/nn"
)

// failAt is a codec that fails its at-th message of exactly n floats.
type failAt struct {
	compress.Compressor
	n, at int
	calls *int
}

func (c failAt) AppendCompress(dst []byte, g []float32) ([]byte, error) {
	if len(g) == c.n {
		if *c.calls++; *c.calls == c.at {
			return nil, errors.New("codec gave up")
		}
	}
	return c.Compressor.AppendCompress(dst, g)
}

// failDecode is a codec that fails its at-th decode.
type failDecode struct {
	compress.Compressor
	at    int
	calls *int
}

func (c failDecode) DecompressInto(dst []float32, msg []byte) error {
	if *c.calls++; *c.calls == c.at {
		return errors.New("decoder gave up")
	}
	return c.Compressor.DecompressInto(dst, msg)
}

// TestTrainLeavesNoGoroutines: whatever a run starts — rank goroutines,
// a compress goroutine per bucketed pipeline, the cluster's heartbeat
// and receive loops, chaos's delayed deliveries, elastic joiners — has
// exited by the time Train returns, whether the run completed, was
// halted through Stop, or failed — on the parameter server too, where a
// failed codec on either side must not leave the other side parked.
func TestTrainLeavesNoGoroutines(t *testing.T) {
	fault := func(c *Config, ch *chaos.Config, joins ...int) {
		cc := faultClusterCfg()
		cc.Policy, cc.OnStraggler = cluster.StaleReuse, cluster.StragglerWait
		c.Fault = &FaultConfig{Cluster: cc, Chaos: ch, ElasticJoins: joins}
	}
	lossy := chaos.Config{Seed: 31, Drop: 0.05, DelayProb: 0.10, Delay: 10 * time.Millisecond}
	crashing := lossy
	crashing.Crashes = []chaos.CrashEvent{{Rank: 2, AtOp: 400, RecoverAfterOps: 400}}
	for _, tc := range []struct {
		name    string
		set     func(*Config)
		wantErr string
	}{
		{"warm-up", func(*Config) {}, ""}, // the parallel pool's helpers are the baseline
		{"barrier", func(*Config) {}, ""},
		{"bucketed", func(c *Config) { c.Collective = &collective.Config{BucketBytes: fourBuckets(*c)} }, ""},
		{"fault", func(c *Config) { fault(c, nil) }, ""},
		{"fault + chaos crash/rejoin", func(c *Config) { fault(c, &crashing) }, ""},
		{"gossip", func(c *Config) {
			fault(c, &lossy)
			c.Collective = &collective.Config{Strategy: collective.Gossip}
		}, ""},
		{"elastic join", func(c *Config) { fault(c, nil, 10) }, ""},
		{"halted through Stop", func(c *Config) {
			stop := make(chan struct{})
			c.Stop, c.Collective = stop, &collective.Config{BucketBytes: fourBuckets(*c)}
			c.OnEpoch = func(EpochStats) { close(stop) }
		}, ""},
		{"failing codec", func(c *Config) {
			// An odd parameter count halves into two buckets of unlike
			// length, so a codec can tell it is bucket 1's: its fourth
			// message is iteration 3's.
			c.Model = func(s int64) *nn.Network { return models.MLP(16, 31, 4, s) }
			n := c.Model(c.Seed).NumParams()
			c.Collective = &collective.Config{BucketBytes: 4 * (n/2 + 1)}
			c.NewCompressor = func() compress.Compressor {
				return failAt{compress.NewFFT(0.85), n - n/2, 4, new(int)}
			}
		}, "bucket 1 compress: codec gave up"},
		{"ps", func(c *Config) { c.PS = &PSConfig{} }, ""},
		{"ps async", func(c *Config) { c.PS = &PSConfig{Async: true} }, ""},
		{"ps halted through Stop", func(c *Config) {
			stop := make(chan struct{})
			c.PS, c.Stop = &PSConfig{}, stop
			c.OnEpoch = func(EpochStats) { close(stop) }
		}, ""},
		{"ps failing codec", func(c *Config) {
			c.PS = &PSConfig{}
			n := c.Model(c.Seed).NumParams()
			c.NewCompressor = func() compress.Compressor {
				return failAt{compress.NewFFT(0.85), n, 4, new(int)}
			}
		}, "codec gave up"},
		{"ps server decode failure", func(c *Config) {
			c.PS = &PSConfig{}
			c.NewCompressor = func() compress.Compressor {
				return failDecode{compress.NewFFT(0.85), 6, new(int)}
			}
		}, "decoder gave up"},
	} {
		cfg := blobCfg(91)
		cfg.Epochs = 2
		cfg.NewCompressor = func() compress.Compressor { return compress.NewFFT(0.85) }
		tc.set(&cfg)
		before := runtime.NumGoroutine()
		_, err := Train(cfg)
		if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: Train returned %v, want %q", tc.name, err, tc.wantErr)
		}
		if tc.name == "warm-up" {
			continue
		}
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
			time.Sleep(5 * time.Millisecond)
		}
		if after > before {
			buf := make([]byte, 1<<16)
			t.Errorf("%s: %d goroutines before Train, %d still running 2s after it returned:\n%s",
				tc.name, before, after, buf[:runtime.Stack(buf, true)])
		}
	}
}
