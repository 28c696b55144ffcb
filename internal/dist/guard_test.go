package dist

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"fftgrad/internal/chaos"
	"fftgrad/internal/cluster"
	"fftgrad/internal/compress"
	"fftgrad/internal/guard"
	"fftgrad/internal/nn"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/tensor"
)

// fullGuard returns every guard mechanism switched on.
func fullGuard() *guard.Config {
	return &guard.Config{
		CRC:        true,
		Scrub:      guard.ScrubClamp,
		Detect:     true,
		DriftEvery: 8,
	}
}

// TestGuardCorruptionGate is the PR's acceptance gate: under seeded
// single-bit wire corruption every corrupt frame must be caught by the
// CRC before decompression and repaired by the nack/resend path — so
// the run completes, counts its rejections, shows zero parameter
// drift, and converges within 2 points of the fault-free run.
func TestGuardCorruptionGate(t *testing.T) {
	base, err := Train(blobCfg(71))
	if err != nil {
		t.Fatal(err)
	}
	baseAcc := base.Epochs[len(base.Epochs)-1].TestAcc

	cfg := blobCfg(71)
	cc := faultClusterCfg()
	cc.Policy = cluster.StaleReuse
	cfg.Fault = &FaultConfig{
		Cluster: cc,
		Chaos:   &chaos.Config{Seed: 71, Corrupt: 0.05},
	}
	cfg.Guard = fullGuard()
	cfg.Telemetry = telemetry.NewRegistry()

	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := Train(cfg)
		done <- out{res, err}
	}()
	var res *Result
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("corrupted run failed: %v", o.err)
		}
		res = o.res
	case <-time.After(4 * time.Minute):
		t.Fatal("corrupted run deadlocked")
	}

	if res.Fault == nil || res.Fault.Chaos == nil || res.Guard == nil {
		t.Fatal("fault/chaos/guard report missing")
	}
	if res.Fault.Chaos.Corruptions == 0 {
		t.Fatal("chaos corrupted nothing; gate proves nothing")
	}
	g := res.Guard
	if g.CorruptFrames == 0 {
		t.Fatalf("no corrupt frames rejected despite %d injected corruptions", res.Fault.Chaos.Corruptions)
	}
	if g.CorruptFrames > res.Fault.Chaos.Corruptions {
		t.Fatalf("rejected %d frames but only %d were corrupted", g.CorruptFrames, res.Fault.Chaos.Corruptions)
	}
	// Zero garbage gradients applied: every repair was lossless, so the
	// replicas never drifted and the fingerprint checks all matched.
	if g.DriftChecks == 0 || g.DriftResyncs != 0 {
		t.Fatalf("drift accounting off: %d checks, %d resyncs", g.DriftChecks, g.DriftResyncs)
	}
	acc := res.Epochs[len(res.Epochs)-1].TestAcc
	if acc < baseAcc-0.02 {
		t.Fatalf("accuracy under corruption %.3f more than 2 points below fault-free %.3f", acc, baseAcc)
	}
	if v := res.Telemetry["fftgrad_guard_corrupt_frames"]; v <= 0 {
		t.Fatalf("fftgrad_guard_corrupt_frames = %g in telemetry snapshot", v)
	}
}

// burstInjector wraps a compressor and multiplies every reconstructed
// gradient by scale during iterations [from, to) — garbage that gets
// past compression (it is finite, so the pre-compress scrub cannot see
// it) and must be caught by the post-average norm detector. Each rank
// decodes p messages per iteration in lockstep, so a per-instance call
// counter recovers the iteration index and every rank injects
// identically.
type burstInjector struct {
	inner    compress.Compressor
	p        int
	from, to int
	scale    float32
	calls    int
}

func (b *burstInjector) Name() string { return "burst" }
func (b *burstInjector) AppendCompress(dst []byte, g []float32) ([]byte, error) {
	return b.inner.AppendCompress(dst, g)
}
func (b *burstInjector) DecompressInto(dst []float32, msg []byte) error {
	if err := b.inner.DecompressInto(dst, msg); err != nil {
		return err
	}
	iter := b.calls / b.p
	b.calls++
	if iter >= b.from && iter < b.to {
		for i := range dst {
			dst[i] *= b.scale
		}
	}
	return nil
}

// TestGuardEscalationLadder forces a sustained burst of amplified
// gradients through the exchange and checks the detector walks the full
// clip → skip-update → rollback ladder — and that the run still
// completes afterwards.
func TestGuardEscalationLadder(t *testing.T) {
	cfg := blobCfg(81)
	cfg.NewCompressor = func() compress.Compressor {
		return &burstInjector{inner: compress.FP32{}, p: cfg.Workers, from: 40, to: 52, scale: 1e8}
	}
	cfg.Guard = &guard.Config{
		CRC:           true,
		Scrub:         guard.ScrubClamp,
		Detect:        true,
		RollbackAfter: 5,
	}
	res, err := Train(cfg)
	if err != nil {
		t.Fatalf("run with injected burst failed: %v", err)
	}
	g := res.Guard
	if g == nil {
		t.Fatal("guard report missing")
	}
	if g.Clips == 0 || g.SkippedUpdates == 0 || g.Rollbacks == 0 {
		t.Fatalf("escalation ladder incomplete: %d clips, %d skips, %d rollbacks", g.Clips, g.SkippedUpdates, g.Rollbacks)
	}
	if g.Anomalies != g.Clips+g.SkippedUpdates+g.Rollbacks {
		t.Fatalf("anomaly accounting inconsistent: %+v", g)
	}
	if len(res.Epochs) != cfg.Epochs {
		t.Fatalf("run did not complete all epochs: %d of %d", len(res.Epochs), cfg.Epochs)
	}
}

// nanBackward is a parameter-free layer that injects a NaN into the
// backward delta on a fixed cadence — so a real Dense layer's weight
// gradient goes non-finite, exactly like an intermittent numerical
// blow-up in the backward pass. Forward is the identity.
type nanBackward struct{ every, calls int }

func (l *nanBackward) Params() []*nn.Param                             { return nil }
func (l *nanBackward) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor { return x }
func (l *nanBackward) Backward(dy *tensor.Tensor) *tensor.Tensor {
	l.calls++
	if l.calls%l.every == 0 {
		dy.Data[0] = float32(math.NaN())
	}
	return dy
}

// TestGuardScrubSkipRunCompletes runs a model whose backward pass
// intermittently produces NaN gradients. Under ScrubSkip the poisoned
// gradients are withheld (the rank ships zeros, keeping the collective
// in lockstep), no NaN ever reaches the wire or the parameters, and
// the run completes with a finite model.
func TestGuardScrubSkipRunCompletes(t *testing.T) {
	cfg := blobCfg(91)
	cfg.Model = func(s int64) *nn.Network {
		r := rand.New(rand.NewSource(s))
		return nn.Sequential(
			nn.NewDense(16, 32, r),
			&nanBackward{every: 3},
			nn.NewReLU(),
			nn.NewDense(32, 4, r),
		)
	}
	cfg.Guard = &guard.Config{CRC: true, Scrub: guard.ScrubSkip, Detect: true}
	res, err := Train(cfg)
	if err != nil {
		t.Fatalf("run with NaN samples failed: %v", err)
	}
	g := res.Guard
	if g == nil || g.ScrubbedValues == 0 || g.SkippedGradients == 0 {
		t.Fatalf("scrub-skip never fired: %+v", g)
	}
	if len(res.Epochs) != cfg.Epochs {
		t.Fatalf("run did not complete: %d epochs", len(res.Epochs))
	}
	for _, ep := range res.Epochs {
		if math.IsNaN(ep.TrainLoss) || math.IsNaN(ep.TestAcc) {
			t.Fatalf("NaN leaked into training despite scrub-skip: %+v", ep)
		}
	}
}
