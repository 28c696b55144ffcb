package collective

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fftgrad/internal/comm"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// runRanks executes body on each of c's p ranks concurrently and waits.
func runRanks(c *comm.Cluster, p int, body func(cm *comm.Comm)) {
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			body(c.Rank(rank))
		}(r)
	}
	wg.Wait()
}

// rankMsg builds a deterministic per-rank message of varying size.
func rankMsg(rank, round int) []byte {
	r := rand.New(rand.NewSource(int64(rank*1000 + round)))
	m := make([]byte, 16+r.Intn(64))
	r.Read(m)
	return m
}

// TestStrategiesMatchFlatAllgather: every strategy must return exactly
// the flat allgather's message set, in rank order, across repeated
// rounds and ragged group shapes — strategies change schedules, never
// content.
func TestStrategiesMatchFlatAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 9, 13, 16} {
		for _, cfg := range []Config{
			{Strategy: Ring},
			{Strategy: Hier, GroupSize: 1},
			{Strategy: Hier, GroupSize: 3},
			{Strategy: Hier, GroupSize: 4},
			{Strategy: Hier, GroupSize: 64},
			{Strategy: Tree},
		} {
			cfg := cfg
			t.Run(fmt.Sprintf("p=%d/%s/g=%d", p, cfg.Strategy, cfg.GroupSize), func(t *testing.T) {
				cl := comm.NewCluster(p)
				tr := trace.New(p, 4096)
				got := make([][][]byte, p)
				runRanks(cl, p, func(cm *comm.Comm) {
					cm.AttachTrace(tr.Rank(cm.RankID()))
					ex := New(&cfg, cm)
					for round := 0; round < 4; round++ {
						msgs := ex.Allgather(rankMsg(cm.RankID(), round))
						// Copy: the result is only valid until the next call.
						cp := make([][]byte, len(msgs))
						for i, m := range msgs {
							cp[i] = append([]byte(nil), m...)
						}
						got[cm.RankID()] = cp
					}
				})
				for rank := 0; rank < p; rank++ {
					if len(got[rank]) != p {
						t.Fatalf("rank %d got %d messages, want %d", rank, len(got[rank]), p)
					}
					for j := 0; j < p; j++ {
						want := rankMsg(j, 3)
						if !bytes.Equal(got[rank][j], want) {
							t.Fatalf("rank %d msg %d mismatch: %d bytes vs %d", rank, j, len(got[rank][j]), len(want))
						}
					}
				}
			})
		}
	}
}

// TestStrategiesBroadcast: strategy broadcasts must deliver the root
// payload to every rank, for non-zero roots too.
func TestStrategiesBroadcast(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 12} {
		for _, cfg := range []Config{{Strategy: Ring}, {Strategy: Hier, GroupSize: 3}, {Strategy: Tree}} {
			cfg := cfg
			for _, root := range []int{0, p - 1, p / 2} {
				cl := comm.NewCluster(p)
				payload := rankMsg(root, 99)
				runRanks(cl, p, func(cm *comm.Comm) {
					ex := New(&cfg, cm)
					var data []byte
					if cm.RankID() == root {
						data = payload
					}
					out := ex.Broadcast(data, root)
					if !bytes.Equal(out, payload) {
						t.Errorf("p=%d %s root=%d rank=%d: broadcast mismatch", p, cfg.Strategy, root, cm.RankID())
					}
				})
			}
		}
	}
}

// TestStrategyWireAccounting: instrumented strategies must account the
// volumes their analytic models price — hier strictly fewer rx bytes
// than the flat ring's p(p−1)m when messages are deduplicated at
// leaders... for allgather content is not deduplicated, so hier moves
// *more* total bytes (blocks transit twice) but over different links;
// what must hold is that every strategy accounts a non-zero, schedule-
// consistent volume.
func TestStrategyWireAccounting(t *testing.T) {
	const p, m = 8, 100
	for _, cfg := range []Config{{Strategy: Ring}, {Strategy: Hier, GroupSize: 4}, {Strategy: Tree}} {
		cfg := cfg
		cl := comm.NewCluster(p)
		reg := telemetry.NewRegistry()
		cl.Instrument(reg)
		msg := make([]byte, m)
		runRanks(cl, p, func(cm *comm.Comm) {
			ex := New(&cfg, cm)
			ex.Allgather(msg)
		})
		snap := reg.Snapshot()
		tx := snap[`fftgrad_comm_tx_bytes_total{transport="inproc"}`]
		rx := snap[`fftgrad_comm_rx_bytes_total{transport="inproc"}`]
		if tx == 0 || rx == 0 {
			t.Fatalf("%s: no wire accounting (tx=%g rx=%g)", cfg.Strategy, tx, rx)
		}
		if cfg.Strategy == Ring {
			if want := float64(p * (p - 1) * m); tx != want {
				t.Fatalf("ring tx = %g, want %g", tx, want)
			}
		}
	}
}

// TestBuckets: boundary arithmetic.
func TestBuckets(t *testing.T) {
	b := MakeBuckets(1000, 400) // 100 floats per bucket
	if b.Count() != 10 {
		t.Fatalf("count = %d, want 10", b.Count())
	}
	prev := 0
	for i := 0; i < b.Count(); i++ {
		lo, hi := b.Range(i)
		if lo != prev || hi <= lo {
			t.Fatalf("bucket %d range [%d,%d) not contiguous from %d", i, lo, hi, prev)
		}
		prev = hi
	}
	if prev != 1000 {
		t.Fatalf("buckets end at %d, want 1000", prev)
	}
	if MakeBuckets(1000, 0).Count() != 1 {
		t.Fatal("bucketBytes=0 must yield one bucket")
	}
	if MakeBuckets(10, 1<<20).Count() != 1 {
		t.Fatal("oversized bucket must yield one bucket")
	}
	if got := MakeBuckets(7, 8).Count(); got != 4 {
		t.Fatalf("ragged split = %d buckets, want 4", got)
	}
}

// TestConfigValidate covers the error paths wired to trainer/serve.
func TestConfigValidate(t *testing.T) {
	if err := (Config{Strategy: "mesh"}).Validate(); err == nil {
		t.Error("unknown strategy must fail validation")
	}
	if err := (Config{BucketBytes: -1}).Validate(); err == nil {
		t.Error("negative BucketBytes must fail validation")
	}
	c := (Config{}).WithDefaults()
	if c.Strategy != Ring || c.GroupSize != 4 {
		t.Fatalf("defaults = %+v", c)
	}
}
