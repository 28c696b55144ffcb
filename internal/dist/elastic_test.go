package dist

// Chaos gates for the asynchrony/elasticity layer: bounded staleness
// under a permanent straggler, gossip averaging under lossy links, and a
// brand-new rank joining mid-run. Each gate holds the degraded run to
// within two accuracy points of the fault-free baseline — the same
// envelope the crash/rejoin gate in fault_test.go enforces.

import (
	"path/filepath"
	"testing"
	"time"

	"fftgrad/internal/chaos"
	"fftgrad/internal/cluster"
	"fftgrad/internal/collective"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// trainOrDeadlock runs Train in a goroutine so a wedged exchange fails
// the test instead of hanging the package.
func trainOrDeadlock(t *testing.T, cfg Config) *Result {
	t.Helper()
	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := Train(cfg)
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("run failed: %v", o.err)
		}
		return o.res
	case <-time.After(4 * time.Minute):
		t.Fatal("run deadlocked")
		return nil
	}
}

func finalAcc(res *Result) float64 {
	return res.Epochs[len(res.Epochs)-1].TestAcc
}

// TestBoundedStalenessGate: a permanent straggler (every send ~6ms late,
// well under the suspicion deadline, never recovering) plus background
// drop/delay chaos. Strict BSP would pay the straggler's delay every
// round; bounded mode folds its freshest cached gradient damped by λ^d
// instead. The gate: the run completes, staleness never exceeds the
// window K, and accuracy stays within two points of fault-free.
func TestBoundedStalenessGate(t *testing.T) {
	base, err := Train(blobCfg(51))
	if err != nil {
		t.Fatal(err)
	}
	baseAcc := finalAcc(base)

	for _, k := range []int{1, 4} {
		k := k
		t.Run(map[int]string{1: "K1", 4: "K4"}[k], func(t *testing.T) {
			cfg := blobCfg(51)
			cc := faultClusterCfg()
			cc.Policy = cluster.StaleReuse
			cc.OnStraggler = cluster.StragglerWait
			cfg.Fault = &FaultConfig{
				Cluster:           cc,
				Staleness:         k,
				StalenessDiscount: 0.9,
				Chaos: &chaos.Config{
					Seed:      51,
					Drop:      0.03,
					DelayProb: 0.08,
					Delay:     5 * time.Millisecond,
					// Ops: 0 — rank 3 straggles from op 300 to the end of
					// the run; SlowBy stays below SuspectAfter so it is
					// classified slow, never dead.
					Stragglers: []chaos.StragglerEvent{{Rank: 3, FromOp: 300, SlowBy: 6 * time.Millisecond}},
				},
			}
			cfg.Telemetry = telemetry.NewRegistry()

			res := trainOrDeadlock(t, cfg)
			if res.Fault == nil || res.Fault.Chaos == nil {
				t.Fatal("fault/chaos report missing")
			}
			if res.Fault.Chaos.StraggledOps == 0 {
				t.Fatal("straggler injected nothing; gate proves nothing")
			}
			if res.Fault.LostWorkers != 0 {
				t.Fatalf("permanent straggler was evicted: %+v", res.Fault)
			}
			s := res.Fault.Cluster
			if s.StalenessMax > uint64(k) {
				t.Fatalf("staleness %d folded beyond the K=%d window", s.StalenessMax, k)
			}
			if s.StaleReuses == 0 {
				t.Fatal("no stale folds: bounded mode never engaged")
			}
			if acc := finalAcc(res); acc < baseAcc-0.02 {
				t.Fatalf("accuracy under bounded staleness %.3f more than 2 points below fault-free %.3f", acc, baseAcc)
			}
			if v := res.Telemetry["fftgrad_staleness_max"]; v != float64(s.StalenessMax) {
				t.Fatalf("fftgrad_staleness_max = %g, stats say %d", v, s.StalenessMax)
			}
		})
	}
}

// TestGossipGate: decentralized ring-neighbor averaging under lossy
// links. No root, no global barrier — every iteration is one gradient
// gossip round and every sync period one parameter-consensus round, both
// under Metropolis weights. The gate: rounds actually happened and
// accuracy stays within two points of the fault-free allreduce baseline.
func TestGossipGate(t *testing.T) {
	base, err := Train(blobCfg(53))
	if err != nil {
		t.Fatal(err)
	}
	baseAcc := finalAcc(base)

	cfg := blobCfg(53)
	cfg.Collective = &collective.Config{Strategy: collective.Gossip}
	cc := faultClusterCfg()
	cc.Policy = cluster.StaleReuse
	cfg.Fault = &FaultConfig{
		Cluster: cc,
		Chaos: &chaos.Config{
			Seed:      53,
			Drop:      0.03,
			DelayProb: 0.05,
			Delay:     5 * time.Millisecond,
		},
	}
	cfg.Telemetry = telemetry.NewRegistry()

	res := trainOrDeadlock(t, cfg)
	if res.Fault == nil {
		t.Fatal("fault report missing")
	}
	if res.Fault.Cluster.GossipRounds == 0 {
		t.Fatal("no gossip rounds recorded")
	}
	if acc := finalAcc(res); acc < baseAcc-0.02 {
		t.Fatalf("gossip accuracy %.3f more than 2 points below allreduce %.3f", acc, baseAcc)
	}
	if v := res.Telemetry["fftgrad_gossip_rounds_total"]; v <= 0 {
		t.Fatalf("fftgrad_gossip_rounds_total = %g in telemetry snapshot", v)
	}
}

// TestAsyncConfigRejections: the asynchrony modes validate their
// configuration up front with typed, actionable errors.
func TestAsyncConfigRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"gossip without fault", func(c *Config) {
			c.Collective = &collective.Config{Strategy: collective.Gossip}
		}},
		{"gossip with buckets", func(c *Config) {
			c.Collective = &collective.Config{Strategy: collective.Gossip, BucketBytes: 4096}
			c.Fault = &FaultConfig{Cluster: faultClusterCfg()}
		}},
		{"negative staleness", func(c *Config) {
			c.Fault = &FaultConfig{Cluster: faultClusterCfg(), Staleness: -1}
		}},
		{"discount above one", func(c *Config) {
			c.Fault = &FaultConfig{Cluster: faultClusterCfg(), Staleness: 2, StalenessDiscount: 1.5}
		}},
		{"negative join iteration", func(c *Config) {
			c.Fault = &FaultConfig{Cluster: faultClusterCfg(), ElasticJoins: []int{-3}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := blobCfg(1)
			tc.mut(&cfg)
			if _, err := Train(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// TestElasticJoinGate: a brand-new rank (beyond the initial four) joins
// once the exchange frontier reaches iteration 10 — quorum view change
// that grows the view, checkpoint restore, entry at the frontier. The
// gate: exactly one elastic join, nobody lost, a view-grow flight dump
// on record, and accuracy within two points of the fault-free baseline.
func TestElasticJoinGate(t *testing.T) {
	base, err := Train(blobCfg(57))
	if err != nil {
		t.Fatal(err)
	}
	baseAcc := finalAcc(base)

	cfg := blobCfg(57)
	cc := faultClusterCfg()
	cc.Policy = cluster.StaleReuse
	cc.OnStraggler = cluster.StragglerWait
	cfg.Fault = &FaultConfig{Cluster: cc, ElasticJoins: []int{10}}
	cfg.Telemetry = telemetry.NewRegistry()
	tracer := trace.New(cfg.Workers+1, 2048)
	cfg.Tracer = tracer
	cfg.Flight = trace.NewFlightRecorder(tracer, filepath.Join(t.TempDir(), "flight.json"))

	res := trainOrDeadlock(t, cfg)
	if res.Fault == nil {
		t.Fatal("fault report missing")
	}
	s := res.Fault.Cluster
	if s.ElasticJoins != 1 {
		t.Fatalf("elastic joins %d, want 1: %+v", s.ElasticJoins, s)
	}
	if res.Fault.LostWorkers != 0 {
		t.Fatalf("a rank was lost during scale-up: %+v", res.Fault)
	}
	if s.ViewChanges == 0 {
		t.Fatal("join did not bump the view epoch")
	}
	if acc := finalAcc(res); acc < baseAcc-0.02 {
		t.Fatalf("accuracy with mid-run join %.3f more than 2 points below baseline %.3f", acc, baseAcc)
	}
	if v := res.Telemetry["fftgrad_elastic_joins_total"]; v != 1 {
		t.Fatalf("fftgrad_elastic_joins_total = %g, want 1", v)
	}
	if cfg.Flight.Dumps() == 0 {
		t.Fatal("view-grow flight dump never fired")
	}
}

// TestElasticJoinWorkerAccounting: elastic slots occupy worker quota and
// timeline tracks from submission time — the scheduler must reserve the
// slot before the join fires, not discover it mid-run.
func TestElasticJoinWorkerAccounting(t *testing.T) {
	cfg := blobCfg(1)
	cfg.Fault = &FaultConfig{Cluster: faultClusterCfg(), ElasticJoins: []int{5, 9}}
	if got := cfg.Tracks(); got != cfg.Workers+2 {
		t.Fatalf("Tracks() = %d, want %d", got, cfg.Workers+2)
	}
}
