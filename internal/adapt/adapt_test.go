package adapt

import (
	"math"
	"testing"

	"fftgrad/internal/compress"
	"fftgrad/internal/netsim"
	"fftgrad/internal/telemetry"
)

// testGrad builds a deterministic pseudo-gradient.
func testGrad(n int) []float32 {
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(math.Sin(float64(i)*0.7) * math.Exp(-float64(i%997)/500))
	}
	return g
}

// measurePipeline runs real instrumented FFT round trips so the stage
// timer holds genuinely measured Tm/Tf/Tp/Ts rates (no hand-entered
// Table 1 constants anywhere in this test), returning the steady-state
// message size.
func measurePipeline(t *testing.T, st *telemetry.StageTimer) (msgBytes, gradBytes int) {
	t.Helper()
	c := compress.NewFFT(0.85)
	compress.Instrument(c, st)
	grad := testGrad(1 << 14)
	rec := make([]float32, len(grad))
	var msg []byte
	var err error
	for i := 0; i < 6; i++ {
		msg, err = c.AppendCompress(msg[:0], grad)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.DecompressInto(rec, msg); err != nil {
			t.Fatal(err)
		}
	}
	return len(msg), 4 * len(grad)
}

// observeFabric feeds the exchange stage with netsim-modeled allgather
// times for p ranks of msgBytes each: the effective exchange rate is
// message bytes over collective seconds — Eq. 2's live Tcomm.
func observeFabric(st *telemetry.StageTimer, prof netsim.Profile, p, msgBytes, times int) {
	secs := prof.Allgather(p, msgBytes)
	for i := 0; i < times; i++ {
		st.ObserveStage(telemetry.StageComm, msgBytes, secs)
	}
}

// eagerCtrl returns a controller that trusts its first sample and flips
// after p contrary evaluations.
func eagerCtrl(p int) *Controller {
	ctrl := New(Config{})
	ctrl.patience, ctrl.minSamples = p, 1
	return ctrl
}

// TestEnableDisableReenable is the PR's acceptance scenario: with the
// pipeline rates measured live from real compressions, the controller
// keeps compression on over 1 GbE (any CPU pipeline beats a ~16 MB/s
// effective link), bypasses to FP32 on PCIe (no ratio is beneficial —
// Eq. 4's denominator goes non-positive), and re-enables when the fabric
// degrades back to 1 GbE.
func TestEnableDisableReenable(t *testing.T) {
	const p = 8
	ctrl := eagerCtrl(1)
	st := ctrl.StageTimer()
	msgBytes, gradBytes := measurePipeline(t, st)
	ratio := float64(gradBytes) / float64(msgBytes)

	// Slow fabric: compression must stay enabled.
	observeFabric(st, netsim.Ethernet1G, p, msgBytes, 4)
	d := ctrl.DecideIter(1, ratio, 0.85)
	if !d.Ready {
		t.Fatalf("decision not ready: %+v", d)
	}
	if !d.Compress {
		t.Fatalf("1GbE: controller disabled compression: %+v", d)
	}
	if d.KMin <= 1 || ratio <= d.KMin {
		t.Fatalf("1GbE: achieved ratio %.1f should exceed k_min %.2f", ratio, d.KMin)
	}

	// Fabric improves to PCIe: effective exchange rate jumps ~100x, the
	// measured CPU pipeline cannot amortize at any ratio, so the model
	// returns ErrNoBeneficialRatio and the controller bypasses.
	observeFabric(st, netsim.PCIe3, p, msgBytes, 40)
	d = ctrl.DecideIter(2, ratio, 0.85)
	if d.Compress {
		t.Fatalf("PCIe: controller kept compression on: %+v", d)
	}
	if !d.NoBeneficial {
		t.Errorf("PCIe: expected the no-beneficial-ratio regime, got %+v", d)
	}

	// While bypassed, callers report ratio 1 (FP32). The fabric degrades
	// back to 1 GbE; the controller must re-enable from its remembered
	// compressed ratio.
	observeFabric(st, netsim.Ethernet1G, p, msgBytes, 40)
	d = ctrl.DecideIter(3, 1, 0.85)
	if !d.Compress {
		t.Fatalf("1GbE again: controller did not re-enable: %+v", d)
	}
	if d.Ratio <= 1 {
		t.Errorf("remembered ratio lost while bypassed: %+v", d)
	}
	if ctrl.Flips() != 2 {
		t.Errorf("flips = %d, want 2 (disable + re-enable)", ctrl.Flips())
	}
}

// TestDecisionCachedPerIteration: all ranks asking about one iteration
// must get the identical decision even if telemetry moves between calls
// — otherwise ranks could disagree about the wire format mid-exchange.
func TestDecisionCachedPerIteration(t *testing.T) {
	ctrl := eagerCtrl(1)
	st := ctrl.StageTimer()
	msgBytes, gradBytes := measurePipeline(t, st)
	ratio := float64(gradBytes) / float64(msgBytes)

	observeFabric(st, netsim.Ethernet1G, 8, msgBytes, 4)
	first := ctrl.DecideIter(7, ratio, 0.85)

	// Telemetry swings to the opposite regime between two calls for the
	// same iteration: the cached decision must not change.
	observeFabric(st, netsim.PCIe3, 8, msgBytes, 60)
	second := ctrl.DecideIter(7, ratio, 0.85)
	if first != second {
		t.Fatalf("decision for one iteration changed between ranks:\n  first  %+v\n  second %+v", first, second)
	}
	// The next iteration does see the new fabric.
	third := ctrl.DecideIter(8, ratio, 0.85)
	if third.Compress {
		t.Fatalf("iteration 8 should have flipped to bypass: %+v", third)
	}
}

// TestPatienceDampsFlapping: at the default patience of 2, a single contrary
// evaluation must not flip the state.
func TestPatienceDampsFlapping(t *testing.T) {
	ctrl := eagerCtrl(patience)
	st := ctrl.StageTimer()
	msgBytes, gradBytes := measurePipeline(t, st)
	ratio := float64(gradBytes) / float64(msgBytes)

	observeFabric(st, netsim.Ethernet1G, 8, msgBytes, 4)
	if d := ctrl.DecideIter(1, ratio, 0.85); !d.Compress {
		t.Fatalf("baseline decision should compress: %+v", d)
	}
	observeFabric(st, netsim.PCIe3, 8, msgBytes, 60)
	if d := ctrl.DecideIter(2, ratio, 0.85); !d.Compress {
		t.Fatalf("one contrary evaluation flipped the state despite patience 2: %+v", d)
	}
	if d := ctrl.DecideIter(3, ratio, 0.85); d.Compress {
		t.Fatalf("two contrary evaluations should flip: %+v", d)
	}
}

// TestNotReadyKeepsCompressing: before minSamples of telemetry exist the
// controller must keep the (learning) compressing state and say so.
func TestNotReadyKeepsCompressing(t *testing.T) {
	ctrl := New(Config{})
	d := ctrl.DecideIter(0, 0, 0.85)
	if !d.Compress || d.Ready {
		t.Fatalf("cold controller should compress and report not-ready: %+v", d)
	}
}

// TestSuggestTheta checks the θ steering rule: ratio far above the
// target relaxes θ, far below tightens it, near the target (±10%) holds,
// and clamps apply.
func TestSuggestTheta(t *testing.T) {
	ctrl := New(Config{})
	kmin := 8.0 // target ratio 12

	// Achieved 24x vs target 12x: keep fraction should double, θ drops.
	nt, adj := ctrl.suggestTheta(0.9, 24, kmin)
	if !adj || nt >= 0.9 {
		t.Errorf("over-compressing should relax θ below 0.9, got %.3f (adj=%v)", nt, adj)
	}
	// Achieved 6x vs target 12x: θ must tighten toward 1.
	nt, adj = ctrl.suggestTheta(0.9, 6, kmin)
	if !adj || nt <= 0.9 {
		t.Errorf("under-compressing should tighten θ above 0.9, got %.3f (adj=%v)", nt, adj)
	}
	// Within the deadband: no change.
	if _, adj = ctrl.suggestTheta(0.9, 12.5, kmin); adj {
		t.Errorf("ratio inside deadband should not adjust θ")
	}
	// Clamped at thetaMax.
	nt, _ = ctrl.suggestTheta(0.98, 1.2, 100)
	if nt > 0.99 {
		t.Errorf("suggestion exceeded thetaMax: %.3f", nt)
	}
	// Clamped at thetaMin.
	nt, _ = ctrl.suggestTheta(0.55, 1000, 2)
	if nt < 0.5 {
		t.Errorf("suggestion fell below thetaMin: %.3f", nt)
	}
}

// TestMeasuredThroughputsInf: stages never exercised must report +Inf so
// perfmodel.Validate passes and the stage prices at zero cost.
func TestMeasuredThroughputsInf(t *testing.T) {
	ctrl := New(Config{})
	ctrl.StageTimer().ObserveStage(telemetry.StageSelect, 1<<20, 0.001)
	tp := ctrl.MeasuredThroughputs()
	if !math.IsInf(tp.Tf, 1) || !math.IsInf(tp.Tm, 1) || !math.IsInf(tp.Tp, 1) {
		t.Errorf("unmeasured stages should be +Inf: %+v", tp)
	}
	if tp.Ts <= 0 || math.IsInf(tp.Ts, 1) {
		t.Errorf("measured stage should be finite positive: %+v", tp)
	}
	if err := tp.Validate(); err != nil {
		t.Errorf("throughputs with Inf stages must validate: %v", err)
	}
}

// TestRegisterExposesState: the controller's gauges land in a snapshot.
func TestRegisterExposesState(t *testing.T) {
	ctrl := eagerCtrl(1)
	st := ctrl.StageTimer()
	msgBytes, gradBytes := measurePipeline(t, st)
	observeFabric(st, netsim.Ethernet1G, 8, msgBytes, 4)
	ctrl.DecideIter(1, float64(gradBytes)/float64(msgBytes), 0.85)

	reg := telemetry.NewRegistry()
	ctrl.Register(reg)
	snap := reg.Snapshot()
	if snap["fftgrad_adapt_compress_enabled"] != 1 {
		t.Errorf("compress_enabled gauge = %v, want 1", snap["fftgrad_adapt_compress_enabled"])
	}
	if snap["fftgrad_adapt_kmin_ratio"] <= 1 {
		t.Errorf("kmin gauge = %v, want > 1", snap["fftgrad_adapt_kmin_ratio"])
	}
	if snap["fftgrad_adapt_tcomm_bytes_per_second"] <= 0 {
		t.Errorf("tcomm gauge = %v, want > 0", snap["fftgrad_adapt_tcomm_bytes_per_second"])
	}
}
