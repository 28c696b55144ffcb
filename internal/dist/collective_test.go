package dist

import (
	"testing"
	"time"

	"fftgrad/internal/chaos"
	"fftgrad/internal/cluster"
	"fftgrad/internal/collective"
	"fftgrad/internal/compress"
	"fftgrad/internal/feedback"
	"fftgrad/internal/trace"
)

// bucketedCfg is the 8-rank bucketed pipeline configuration of the
// acceptance gate: error-feedback FFT codecs per bucket, full guard
// (CRC frames + fingerprint drift checks), several buckets per
// iteration.
func bucketedCfg(seed int64) Config {
	cfg := blobCfg(seed)
	cfg.Workers = 8
	cfg.NewCompressor = func() compress.Compressor {
		return feedback.New(compress.NewFFT(0.5))
	}
	cfg.Guard = fullGuard()
	cfg.Collective = &collective.Config{BucketBytes: 1024}
	return cfg
}

// TestBucketedExchangeGate is the PR's 8-rank acceptance gate for the
// bucketed pipeline: per-bucket compressors (own CRC framing, own
// error-feedback residual slice) exchanged in flight while later
// buckets compress. The residual-accounting invariants are checked
// through the guard: every drift round's fingerprints must match (all
// ranks hold bit-identical parameters ⇒ zero forced re-syncs).
// (That tracing does not perturb the pipeline is TestExchangerTable's
// barrier/four-buckets/tracer cell.)
func TestBucketedExchangeGate(t *testing.T) {
	cfg := bucketedCfg(83)
	tr := trace.New(cfg.Workers, 512*trace.DefaultEventsPerIteration)
	cfg.Tracer = tr
	base, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := base.GradSize
	if wantB := (n + 255) / 256; wantB < 2 {
		t.Fatalf("model too small to bucket: %d params", n)
	}
	last := base.Epochs[len(base.Epochs)-1]
	if last.TestAcc < 0.9 {
		t.Fatalf("bucketed run accuracy %.3f < 0.9", last.TestAcc)
	}
	g := base.Guard
	if g == nil || g.DriftChecks == 0 {
		t.Fatalf("drift checks did not run: %+v", g)
	}
	if g.DriftResyncs != 0 {
		t.Fatalf("bucketed ranks drifted apart: %d re-syncs", g.DriftResyncs)
	}

	// Per-bucket spans: every rank records OpBucket markers.
	perRank := map[int32]int{}
	for _, e := range tr.Events() {
		if e.Op == trace.OpBucket {
			perRank[e.Rank]++
		}
	}
	for rank := 0; rank < cfg.Workers; rank++ {
		if perRank[int32(rank)] == 0 {
			t.Errorf("rank %d recorded no bucket spans", rank)
		}
	}
}

// TestHierBucketedChaosGate is the collective layer's chaos gate: a
// 2-group hierarchical (pricing) + bucketed run under chaos, with one
// rank crashing mid-iteration — between bucket rounds — must complete,
// rejoin the crashed rank, and stay within 2 points of the fault-free
// flat-ring baseline. The unshipped bucket tail folds into the
// per-bucket error-feedback residuals, so the lost contribution re-ships
// instead of vanishing.
func TestHierBucketedChaosGate(t *testing.T) {
	base, err := Train(blobCfg(89))
	if err != nil {
		t.Fatal(err)
	}
	baseAcc := base.Epochs[len(base.Epochs)-1].TestAcc

	cfg := blobCfg(89)
	cfg.NewCompressor = func() compress.Compressor {
		return feedback.New(compress.NewFFT(0.5))
	}
	cfg.Collective = &collective.Config{
		Strategy:    collective.Hier,
		GroupSize:   2, // 4 workers → 2 groups of 2
		BucketBytes: 1024,
	}
	cc := faultClusterCfg()
	cc.Policy = cluster.StaleReuse
	cc.OnStraggler = cluster.StragglerWait
	cfg.Fault = &FaultConfig{
		Cluster: cc,
		Chaos: &chaos.Config{
			Seed:      89,
			Drop:      0.05,
			DelayProb: 0.10,
			Delay:     10 * time.Millisecond,
			Crashes:   []chaos.CrashEvent{{Rank: 2, AtOp: 1200, RecoverAfterOps: 1000}},
		},
	}

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
			t.Fatalf("hier bucketed chaos run failed: %v", o.err)
		}
		res = o.res
	case <-time.After(4 * time.Minute):
		t.Fatal("hier bucketed chaos run deadlocked")
	}

	if res.Fault == nil || res.Fault.Chaos == nil || res.Fault.Chaos.Drops == 0 {
		t.Fatal("chaos injected nothing; gate proves nothing")
	}
	s := res.Fault.Cluster
	if s.Suspicions == 0 || s.Rejoins == 0 {
		t.Fatalf("crash+rejoin not exercised: %+v", s)
	}
	if res.Fault.LostWorkers != 0 {
		t.Fatalf("crashed rank never made it back: %+v", res.Fault)
	}
	acc := res.Epochs[len(res.Epochs)-1].TestAcc
	if acc < baseAcc-0.02 {
		t.Fatalf("accuracy under chaos %.3f more than 2 points below fault-free %.3f", acc, baseAcc)
	}
}

// TestCollectiveConfigRejected: an invalid strategy fails fast at Train.
func TestCollectiveConfigRejected(t *testing.T) {
	cfg := blobCfg(91)
	cfg.Collective = &collective.Config{Strategy: "mesh"}
	if _, err := Train(cfg); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}
