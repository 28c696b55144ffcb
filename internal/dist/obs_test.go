package dist

import (
	"testing"
	"time"

	"fftgrad/internal/chaos"
	"fftgrad/internal/cluster"
	"fftgrad/internal/obs"
)

// TestProfilerBlamesChaosStraggler is the in-process half of the
// TestSmokeObs gate (cmd/trainer): under a chaos schedule that permanently slows one
// rank's message delivery, the blame ledger must attribute at least half
// of all blocked time to that rank. The straggler's own records look
// healthy (it computes and exchanges fast — its *sends* arrive late), so
// this exercises the cluster layer's in-exchange arrival attribution end
// to end: Member arrival tracking → ExchangeResult.SlowestPeer/WaitNs →
// IterRecord.BlamePeer → ledger.
func TestProfilerBlamesChaosStraggler(t *testing.T) {
	const straggler = 2
	cfg := blobCfg(17)
	cfg.Epochs = 1
	cc := faultClusterCfg()
	cc.OnStraggler = cluster.StragglerWait
	cfg.Fault = &FaultConfig{
		Cluster: cc,
		Chaos: &chaos.Config{
			Seed: 17,
			// 15ms, as in cmd/trainer's TestSmokeObs: the injected delay must dwarf
			// scheduler noise, which under -race on two cores reaches the
			// low milliseconds and used to outweigh a 2ms straggle.
			Stragglers: []chaos.StragglerEvent{{Rank: straggler, SlowBy: 15 * time.Millisecond}},
		},
	}
	prof := obs.New(cfg.Workers, 1024)
	cfg.Profiler = prof
	if _, err := Train(cfg); err != nil {
		t.Fatal(err)
	}
	s := prof.Summary(true)
	if s.TotalBlockedNs <= 0 {
		t.Fatal("no blocked time recorded despite a straggling rank")
	}
	var blamed int64
	for _, e := range s.Blame {
		if e.Rank == straggler {
			blamed = e.BlamedNs
		}
	}
	if frac := float64(blamed) / float64(s.TotalBlockedNs); frac < 0.5 {
		t.Fatalf("straggled rank %d holds %.0f%% of blame, want >= 50%% (ledger: %+v)",
			straggler, 100*frac, s.Blame)
	}
}
