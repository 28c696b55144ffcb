package ps

import (
	"testing"

	"fftgrad/internal/compress"
	"fftgrad/internal/dist"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// mustNew panics on a bad codec name; NewCompressor runs on worker
// goroutines where t.Fatal is off-limits.
func mustNew(name string, theta float64) compress.Compressor {
	c, err := compress.New(name, theta)
	if err != nil {
		panic(err)
	}
	return c
}

func TestPSHaltCapturesAndResumes(t *testing.T) {
	// Halt after the first epoch boundary, then resume from the captured
	// checkpoint and confirm the continued run reaches normal quality.
	stop := make(chan struct{})
	cfg := blobCfg(12)
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

	rest := blobCfg(12)
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
	cfg := blobCfg(13)
	cfg.Async = true
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

func TestPSJobInterface(t *testing.T) {
	cfg := blobCfg(14)
	cfg.NewCompressor = func() compress.Compressor {
		return mustNew("fft", 0.85)
	}
	job := cfg.NewJob()
	if job.Backend() != "ps" {
		t.Fatalf("Backend() = %q, want ps", job.Backend())
	}
	if job.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", job.Workers())
	}
	if job.Tracks() != 5 {
		t.Fatalf("Tracks() = %d, want workers+1 server track", job.Tracks())
	}

	reg := telemetry.NewRegistry()
	tr := trace.New(job.Tracks(), 1024)
	var epochs []dist.EpochStats
	res, err := job.Run(dist.JobHarness{
		Telemetry: reg,
		Tracer:    tr,
		OnEpoch:   func(s dist.EpochStats) { epochs = append(epochs, s) },
	})
	if err != nil {
		t.Fatalf("job.Run: %v", err)
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
