package dist

import (
	"testing"

	"fftgrad/internal/adapt"
	"fftgrad/internal/compress"
	"fftgrad/internal/netsim"
	"fftgrad/internal/telemetry"
)

// TestTelemetryWiring: a run with a Registry attached must produce a
// final snapshot holding wire-byte counters and per-stage throughput
// gauges, plus the measured exchange wall time in the result, and with
// no controller every iteration compressed.
func TestTelemetryWiring(t *testing.T) {
	cfg := blobCfg(41)
	cfg.NewCompressor = func() compress.Compressor { return compress.NewFFT(0.5) }
	cfg.Telemetry = telemetry.NewRegistry()
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("result carries no telemetry snapshot")
	}
	tx := res.Telemetry[`fftgrad_comm_tx_bytes_total{transport="inproc"}`]
	rx := res.Telemetry[`fftgrad_comm_rx_bytes_total{transport="inproc"}`]
	if tx <= 0 || rx != tx {
		t.Errorf("wire counters: tx=%v rx=%v, want equal and positive", tx, rx)
	}
	for _, stage := range []string{"tm", "tf", "tp", "ts", "comm"} {
		if v := res.Telemetry[`fftgrad_stage_throughput_bytes_per_second{stage="`+stage+`"}`]; v <= 0 {
			t.Errorf("stage %q throughput gauge = %v, want > 0", stage, v)
		}
	}
	if res.CommMeasuredSeconds <= 0 {
		t.Errorf("CommMeasuredSeconds = %v, want > 0", res.CommMeasuredSeconds)
	}
	if res.BypassedIterations != 0 {
		t.Errorf("%d iterations bypassed without a controller", res.BypassedIterations)
	}
}

// TestAdaptBypassesOnFastFabric: on a PCIe-class fabric the live Eq. 4
// evaluation finds no beneficial ratio for a CPU pipeline, so the
// controller must switch the run to FP32 bypass after its warmup
// samples — and training must still converge.
func TestAdaptBypassesOnFastFabric(t *testing.T) {
	cfg := blobCfg(42)
	cfg.NewCompressor = func() compress.Compressor { return compress.NewFFT(0.5) }
	cfg.Fabric = netsim.PCIe3
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Adapt = adapt.New(adapt.Config{})
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BypassedIterations == 0 {
		t.Fatalf("controller never bypassed on PCIe: %+v", cfg.Adapt.Last())
	}
	if v := res.Telemetry["fftgrad_adapt_bypassed_iterations_total"]; v <= 0 {
		t.Errorf("bypass gauge = %v, want > 0", v)
	}
	last := res.Epochs[len(res.Epochs)-1]
	if last.TestAcc < 0.9 {
		t.Errorf("bypassed run accuracy %.3f < 0.9", last.TestAcc)
	}
}

// TestAdaptKeepsCompressingOnSlowFabric: on a WAN-class fabric the
// effective exchange rate is tens of KB/s — any pipeline this repo can
// run beats it at the achieved ratio, so the controller must never
// bypass. (The fabric is far slower than 1 GbE so the verdict holds for
// this test's tiny 2.7 KB gradient even under the race detector's ~10x
// pipeline slowdown; the adapt package tests cover the 1 GbE vs PCIe
// contrast on an amortizing 64 KB gradient.)
func TestAdaptKeepsCompressingOnSlowFabric(t *testing.T) {
	cfg := blobCfg(43)
	cfg.NewCompressor = func() compress.Compressor { return compress.NewFFT(0.5) }
	cfg.Fabric = netsim.Profile{Name: "wan", Bandwidth: 125e3, Latency: 5e-3}
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Adapt = adapt.New(adapt.Config{})
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BypassedIterations != 0 {
		t.Fatalf("controller bypassed %d iterations on 1GbE: %+v",
			res.BypassedIterations, cfg.Adapt.Last())
	}
	d := cfg.Adapt.Last()
	if !d.Ready || !d.Compress {
		t.Errorf("final decision should be ready and compressing: %+v", d)
	}
	if d.KMin <= 1 || d.Ratio <= d.KMin {
		t.Errorf("achieved ratio %.2f should exceed k_min %.2f", d.Ratio, d.KMin)
	}
	if res.CompressionRatio <= 1 {
		t.Errorf("run compression ratio = %v, want > 1", res.CompressionRatio)
	}
}
