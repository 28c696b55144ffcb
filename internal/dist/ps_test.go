package dist

import (
	"testing"

	"fftgrad/internal/compress"
	"fftgrad/internal/feedback"
	"fftgrad/internal/netsim"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// psCfg is blobCfg on the parameter-server runtime.
func psCfg(seed int64) Config {
	cfg := blobCfg(seed)
	cfg.PS = &PSConfig{}
	return cfg
}

func TestSyncPSConverges(t *testing.T) {
	res, err := Train(psCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("epochs %d", len(res.Epochs))
	}
	last := res.Epochs[len(res.Epochs)-1]
	if last.TestAcc < 0.9 {
		t.Fatalf("sync PS accuracy %.3f", last.TestAcc)
	}
	if last.TrainLoss >= res.Epochs[0].TrainLoss {
		t.Fatalf("loss did not fall: %v", res.Epochs)
	}
	if res.CommSeconds <= 0 || res.ComputeSeconds <= 0 {
		t.Fatalf("timing missing: comm=%g compute=%g", res.CommSeconds, res.ComputeSeconds)
	}
}

func TestIterationAccounting(t *testing.T) {
	cfg := psCfg(2)
	cfg.ItersPerEpoch = 10
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Epochs * cfg.ItersPerEpoch * cfg.Workers
	if res.Iterations != want {
		t.Fatalf("pushes %d want %d", res.Iterations, want)
	}
}

func TestPSWithCompression(t *testing.T) {
	cfg := psCfg(5)
	cfg.NewCompressor = func() compress.Compressor { return compress.NewFFT(0.5) }
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompressionRatio < 1.5 {
		t.Fatalf("ratio %.2f", res.CompressionRatio)
	}
	if res.Epochs[len(res.Epochs)-1].TestAcc < 0.85 {
		t.Fatalf("accuracy %.3f", res.Epochs[len(res.Epochs)-1].TestAcc)
	}
	base, err := Train(psCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.CommSeconds >= base.CommSeconds {
		t.Fatalf("compressed push path should cost less: %g vs %g", res.CommSeconds, base.CommSeconds)
	}
}

func TestPSConfigValidation(t *testing.T) {
	if _, err := Train(Config{PS: &PSConfig{}}); err == nil {
		t.Fatal("empty config should error")
	}
}

// The paper's structural claim: the PS star congests at the server while
// BSP's ring spreads volume — at equal message sizes and worker counts,
// the PS per-iteration communication must exceed the ring allreduce cost,
// and the gap must widen with p.
func TestCongestionVsRing(t *testing.T) {
	fabric := netsim.InfiniBandFDR
	m := 6 << 20 // ResNet32-scale gradient
	prevGap := 0.0
	for _, p := range []int{4, 8, 16, 32} {
		star := starPrice(fabric, p, m, m)
		ring := fabric.RingAllreduce(p, m)
		if star <= ring {
			t.Fatalf("p=%d: star %.5f should exceed ring %.5f", p, star, ring)
		}
		gap := star / ring
		if gap < prevGap {
			t.Fatalf("congestion gap should widen with p: %.2f then %.2f", prevGap, gap)
		}
		prevGap = gap
	}
}

// PS composes with the feedback wrappers: each worker owns a stateful
// compressor instance and the server decodes with a stateless one.
func TestPSWithErrorFeedback(t *testing.T) {
	cfg := psCfg(7)
	cfg.Momentum = 0
	cfg.NewCompressor = func() compress.Compressor {
		return feedback.New(compress.NewTopK(0.95))
	}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[len(res.Epochs)-1].TestAcc < 0.8 {
		t.Fatalf("PS + error feedback accuracy %.3f", res.Epochs[len(res.Epochs)-1].TestAcc)
	}
}

func TestPSHaltCapturesAndResumes(t *testing.T) {
	// Halt after the first epoch boundary, then resume from the captured
	// checkpoint and confirm the continued run reaches normal quality.
	stop := make(chan struct{})
	cfg := psCfg(12)
	cfg.Epochs = 4
	cfg.ItersPerEpoch = 32 // 2048 samples / 4 workers / batch 16
	var seen []EpochStats
	cfg.Stop = stop
	cfg.OnEpoch = func(s EpochStats) {
		seen = append(seen, s)
		if s.Epoch == 0 {
			close(stop)
		}
	}
	res, err := Train(cfg)
	if err != nil {
		t.Fatalf("halted Train: %v", err)
	}
	if !res.Halted {
		t.Fatal("Halted = false after Stop closed")
	}
	if res.Final == nil {
		t.Fatal("halted run captured no final checkpoint")
	}
	total := cfg.Epochs * cfg.ItersPerEpoch * cfg.Workers
	if res.Iterations >= total {
		t.Fatalf("halted run applied %d pushes, want < %d", res.Iterations, total)
	}
	if len(seen) == 0 {
		t.Fatal("OnEpoch never fired before the halt")
	}

	rest := psCfg(12)
	rest.Epochs = 3
	rest.Resume = res.Final
	res2, err := Train(rest)
	if err != nil {
		t.Fatalf("resumed Train: %v", err)
	}
	acc := res2.Epochs[len(res2.Epochs)-1].TestAcc
	if acc < 0.80 {
		t.Fatalf("resumed accuracy = %.3f, want >= 0.80", acc)
	}
}

func TestPSAsyncHalt(t *testing.T) {
	stop := make(chan struct{})
	cfg := psCfg(13)
	cfg.PS.Async = true
	cfg.Epochs = 4
	cfg.Stop = stop
	cfg.OnEpoch = func(s EpochStats) {
		if s.Epoch == 0 {
			close(stop)
		}
	}
	res, err := Train(cfg)
	if err != nil {
		t.Fatalf("halted async Train: %v", err)
	}
	if !res.Halted || res.Final == nil {
		t.Fatalf("async halt: Halted=%v Final=%v", res.Halted, res.Final != nil)
	}
}

// TestPSServerTrack: a PS run records one track past the workers' — the
// server's decode/update spans — and accounts every applied push on its
// registry.
func TestPSServerTrack(t *testing.T) {
	cfg := psCfg(14)
	cfg.NewCompressor = func() compress.Compressor { return compress.NewFFT(0.85) }
	if cfg.Tracks() != 5 {
		t.Fatalf("Tracks() = %d, want workers+1 server track", cfg.Tracks())
	}

	cfg.Telemetry = telemetry.NewRegistry()
	tr := trace.New(cfg.Tracks(), 1024)
	cfg.Tracer = tr
	var epochs []EpochStats
	cfg.OnEpoch = func(s EpochStats) { epochs = append(epochs, s) }
	res, err := Train(cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(epochs) != 3 || len(res.Epochs) != 3 {
		t.Fatalf("epoch stream %d / result %d, want 3", len(epochs), len(res.Epochs))
	}

	// The push counter must account every applied gradient.
	if pushes := res.Telemetry["fftgrad_ps_pushes_total"]; pushes != float64(res.Iterations) {
		t.Fatalf("fftgrad_ps_pushes_total = %v, want %d", pushes, res.Iterations)
	}

	// The server track (index Workers) must carry decode/update spans.
	serverEvents := 0
	for _, ev := range tr.Events() {
		if ev.Rank == 4 {
			serverEvents++
		}
	}
	if serverEvents == 0 {
		t.Fatal("server timeline track recorded no events")
	}
}
