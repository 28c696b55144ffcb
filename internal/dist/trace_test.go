package dist

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fftgrad/internal/chaos"
	"fftgrad/internal/cluster"
	"fftgrad/internal/guard"
	"fftgrad/internal/trace"
)

// TestFlightRecorderChaosDump is the flight-recorder acceptance gate: a
// seeded chaos run (crash + corruption, guard on) must auto-dump a
// trace_event timeline that parses, carries spans from every rank, and
// contains the incident instants that triggered it.
func TestFlightRecorderChaosDump(t *testing.T) {
	cfg := blobCfg(31)
	cc := faultClusterCfg()
	cc.Policy = cluster.StaleReuse
	cc.OnStraggler = cluster.StragglerWait
	cfg.Fault = &FaultConfig{
		Cluster: cc,
		Chaos: &chaos.Config{
			Seed:      31,
			Drop:      0.05,
			DelayProb: 0.10,
			Delay:     10 * time.Millisecond,
			Corrupt:   0.02,
			Crashes:   []chaos.CrashEvent{{Rank: 2, AtOp: 1200, RecoverAfterOps: 1000}},
		},
	}
	cfg.Guard = &guard.Config{CRC: true, Scrub: guard.ScrubClamp}
	tr := trace.New(cfg.Workers, 512*trace.DefaultEventsPerIteration)
	cfg.Tracer = tr
	path := filepath.Join(t.TempDir(), "flight.json")
	cfg.Flight = trace.NewFlightRecorder(tr, path)

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
			t.Fatalf("chaos run failed: %v", o.err)
		}
	case <-time.After(4 * time.Minute):
		t.Fatal("chaos run deadlocked")
	}

	if cfg.Flight.Dumps() == 0 {
		t.Fatal("no flight dump fired despite crash + corruption chaos")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("flight dump missing: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("flight dump is not valid trace_event JSON: %v", err)
	}
	spanRanks := map[float64]bool{}
	names := map[string]int{}
	for _, e := range events {
		switch e["ph"] {
		case "X":
			spanRanks[e["tid"].(float64)] = true
		case "i":
			names[e["name"].(string)]++
		}
	}
	for rank := 0; rank < cfg.Workers; rank++ {
		if !spanRanks[float64(rank)] {
			t.Errorf("flight dump has no spans from rank %d", rank)
		}
	}
	// The dump must contain its own cause and the incident markers the
	// chaos schedule guarantees: a crash-window edge on rank 2 and the
	// flight trigger itself.
	for _, want := range []string{"flight_trigger", "crash"} {
		if names[want] == 0 {
			t.Errorf("flight dump missing %q instant (instants seen: %v)", want, names)
		}
	}
}
