package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fftgrad/internal/chaos"
	"fftgrad/internal/checkpoint"
	"fftgrad/internal/comm"
	"fftgrad/internal/telemetry"
)

// startMembers joins p ranks of a fresh mesh (optionally chaos-wrapped)
// to one runtime and returns the members plus a cleanup func.
func startMembers(t *testing.T, p int, cfg Config, h *chaos.Harness) (*Runtime, []*Member) {
	t.Helper()
	rt := New(p, cfg)
	mesh := comm.NewMesh(p)
	members := make([]*Member, p)
	for r := 0; r < p; r++ {
		var tr comm.Transport = mesh.Endpoint(r)
		if h != nil {
			tr = h.Wrap(tr)
		}
		members[r] = rt.Join(tr)
	}
	t.Cleanup(func() {
		for _, m := range members {
			m.Close()
		}
	})
	return rt, members
}

// runExchange runs one exchange on every member concurrently.
func runExchange(members []*Member, seq uint64, payload func(rank int) []byte) ([]*ExchangeResult, []error) {
	p := len(members)
	res := make([]*ExchangeResult, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			res[rank], errs[rank] = members[rank].Exchange(seq, payload(rank))
		}(r)
	}
	wg.Wait()
	return res, errs
}

// TestExchangeFaultFree: on a clean mesh every rank receives every
// payload, no degradation, no retries.
func TestExchangeFaultFree(t *testing.T) {
	const p = 4
	rt, members := startMembers(t, p, Config{}, nil)
	for seq := uint64(0); seq < 5; seq++ {
		res, errs := runExchange(members, seq, func(r int) []byte {
			return []byte(fmt.Sprintf("s%d-r%d", seq, r))
		})
		for r := 0; r < p; r++ {
			if errs[r] != nil {
				t.Fatalf("seq %d rank %d: %v", seq, r, errs[r])
			}
			if res[r].Degraded || res[r].Contributors != p {
				t.Fatalf("seq %d rank %d degraded: %+v", seq, r, res[r])
			}
			for j := 0; j < p; j++ {
				want := fmt.Sprintf("s%d-r%d", seq, j)
				if string(res[r].Msgs[j]) != want {
					t.Fatalf("seq %d rank %d slot %d = %q want %q", seq, r, j, res[r].Msgs[j], want)
				}
			}
		}
	}
	if s := rt.Stats(); s.Suspicions != 0 || s.DegradedIterations != 0 {
		t.Fatalf("clean run recorded faults: %+v", s)
	}
}

// TestExchangeRepairsDrops: under pure message loss, nack/resend repair
// must deliver bit-identical results — loss alone never degrades.
func TestExchangeRepairsDrops(t *testing.T) {
	const p = 4
	h := chaos.NewHarness(p, chaos.Config{Seed: 17, Drop: 0.15})
	rt, members := startMembers(t, p, Config{
		BackoffBase: 2 * time.Millisecond,
		MaxRetries:  20, // drops only: repair must succeed well within this
	}, h)
	for seq := uint64(0); seq < 8; seq++ {
		res, errs := runExchange(members, seq, func(r int) []byte {
			return []byte(fmt.Sprintf("s%d-r%d", seq, r))
		})
		for r := 0; r < p; r++ {
			if errs[r] != nil {
				t.Fatalf("seq %d rank %d: %v", seq, r, errs[r])
			}
			if res[r].Contributors != p {
				t.Fatalf("seq %d rank %d lost a contribution despite repair", seq, r)
			}
			for j := 0; j < p; j++ {
				want := fmt.Sprintf("s%d-r%d", seq, j)
				if string(res[r].Msgs[j]) != want {
					t.Fatalf("seq %d rank %d slot %d corrupted", seq, r, j)
				}
			}
		}
	}
	if h.Stats().Drops == 0 {
		t.Fatal("chaos injected no drops; test proves nothing")
	}
	if rt.Stats().Suspicions != 0 {
		t.Fatal("pure loss must not trigger suspicions")
	}
}

// TestSuspectQuorumGuard: suspecting below majority returns ErrNoQuorum,
// and an evicted rank cannot mutate the view.
func TestSuspectQuorumGuard(t *testing.T) {
	rt := New(4, Config{})
	if _, err := rt.suspect(3, 0); err != nil {
		t.Fatalf("first suspicion (4→3 alive): %v", err)
	}
	if _, err := rt.suspect(2, 0); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("3→2 alive of 4 must lose quorum, got %v", err)
	}
	if _, err := rt.suspect(0, 3); !errors.Is(err, ErrEvicted) {
		t.Fatalf("evicted rank mutating the view must fail, got %v", err)
	}
	v := rt.View()
	if v.AliveCount() != 3 || v.Alive[3] {
		t.Fatalf("view corrupted: %+v", v)
	}
}

// TestCrashDropRescale: a permanently crashed rank is suspected and the
// survivors complete degraded under DropRescale.
func TestCrashDropRescale(t *testing.T) {
	const p = 4
	h := chaos.NewHarness(p, chaos.Config{
		Seed:    5,
		Crashes: []chaos.CrashEvent{{Rank: 3, AtOp: 0, RecoverAfterOps: 0}},
	})
	rt, members := startMembers(t, p, Config{
		Heartbeat:    time.Millisecond,
		SuspectAfter: 30 * time.Millisecond,
		BackoffBase:  2 * time.Millisecond,
		MaxRetries:   3,
		Policy:       DropRescale,
	}, h)

	// Rank 3's member will report ErrSelfDown; survivors degrade.
	survivors := members[:3]
	time.Sleep(50 * time.Millisecond) // let rank 3 go heartbeat-silent
	res, errs := runExchange(survivors, 0, func(r int) []byte {
		return []byte{byte(r)}
	})
	for r := 0; r < 3; r++ {
		if errs[r] != nil {
			t.Fatalf("survivor %d: %v", r, errs[r])
		}
		if !res[r].Degraded || res[r].Contributors != 3 {
			t.Fatalf("survivor %d: want degraded 3-contributor round, got %+v", r, res[r])
		}
		if res[r].Msgs[3] != nil {
			t.Fatalf("survivor %d: dead rank contributed", r)
		}
	}
	s := rt.Stats()
	if s.Suspicions != 1 {
		t.Fatalf("suspicions = %d, want 1", s.Suspicions)
	}
	if s.DegradedIterations == 0 {
		t.Fatal("no degraded iterations recorded")
	}
	if rt.View().Alive[3] {
		t.Fatal("rank 3 still in view")
	}
	// The crashed rank's own exchange reports self-down (recoverable).
	if _, err := members[3].Exchange(0, []byte{3}); !IsRecoverable(err) {
		t.Fatalf("crashed rank: want recoverable error, got %v", err)
	}
}

// TestCrashFailFast: same crash under FailFast aborts with ErrPeerFailed.
func TestCrashFailFast(t *testing.T) {
	const p = 4
	h := chaos.NewHarness(p, chaos.Config{
		Seed:    6,
		Crashes: []chaos.CrashEvent{{Rank: 3, AtOp: 0, RecoverAfterOps: 0}},
	})
	_, members := startMembers(t, p, Config{
		Heartbeat:    time.Millisecond,
		SuspectAfter: 30 * time.Millisecond,
		BackoffBase:  2 * time.Millisecond,
		MaxRetries:   3,
		Policy:       FailFast,
	}, h)
	time.Sleep(50 * time.Millisecond)
	_, errs := runExchange(members[:3], 0, func(r int) []byte { return []byte{byte(r)} })
	sawPeerFailed := false
	for r := 0; r < 3; r++ {
		if errors.Is(errs[r], ErrPeerFailed) {
			sawPeerFailed = true
		} else if errs[r] != nil && !errors.Is(errs[r], ErrStalled) {
			t.Fatalf("rank %d: unexpected error class %v", r, errs[r])
		}
	}
	if !sawPeerFailed {
		t.Fatalf("no rank saw ErrPeerFailed: %v", errs)
	}
}

// TestStaleReuseServesCache: after a healthy round, a crashed peer's
// cached gradient is substituted and marked stale.
func TestStaleReuseServesCache(t *testing.T) {
	const p = 3
	h := chaos.NewHarness(p, chaos.Config{
		Seed:    8,
		Crashes: []chaos.CrashEvent{{Rank: 2, AtOp: 40, RecoverAfterOps: 0}},
	})
	rt, members := startMembers(t, p, Config{
		Heartbeat:    time.Millisecond,
		SuspectAfter: 30 * time.Millisecond,
		BackoffBase:  2 * time.Millisecond,
		MaxRetries:   3,
		Policy:       StaleReuse,
	}, h)

	// Round 0: everyone healthy (rank 2's first ops are under its crash
	// threshold) — caches fill.
	res, errs := runExchange(members, 0, func(r int) []byte {
		return []byte(fmt.Sprintf("round0-r%d", r))
	})
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("round 0 rank %d: %v", r, errs[r])
		}
		if res[r].Contributors != p {
			t.Fatalf("round 0 rank %d incomplete", r)
		}
	}
	// Let rank 2 burn through its op budget and crash.
	time.Sleep(60 * time.Millisecond)
	res2, errs2 := runExchange(members[:2], 1, func(r int) []byte {
		return []byte(fmt.Sprintf("round1-r%d", r))
	})
	for r := 0; r < 2; r++ {
		if errs2[r] != nil {
			t.Fatalf("round 1 rank %d: %v", r, errs2[r])
		}
		if !res2[r].Stale[2] {
			t.Fatalf("round 1 rank %d: rank 2 not marked stale: %+v", r, res2[r])
		}
		if string(res2[r].Msgs[2]) != "round0-r2" {
			t.Fatalf("round 1 rank %d: stale payload %q, want round-0 cache", r, res2[r].Msgs[2])
		}
	}
	if rt.Stats().StaleReuses == 0 {
		t.Fatal("stale reuses not counted")
	}
}

// TestStragglerDropNoViewChange: a slow-but-alive peer under
// StragglerDrop is excluded for the round with NO suspicion.
func TestStragglerDropNoViewChange(t *testing.T) {
	const p = 3
	rt, members := startMembers(t, p, Config{
		Heartbeat:    time.Millisecond,
		SuspectAfter: 10 * time.Second, // heartbeats keep everyone "alive"
		BackoffBase:  2 * time.Millisecond,
		BackoffMax:   10 * time.Millisecond,
		MaxRetries:   2,
		OnStraggler:  StragglerDrop,
	}, nil)

	// Ranks 0 and 1 exchange; rank 2 never calls Exchange (pure straggler:
	// its heartbeater still runs, so it stays heartbeat-fresh).
	res, errs := runExchange(members[:2], 0, func(r int) []byte { return []byte{byte(r)} })
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if !res[r].Degraded || res[r].Msgs[2] != nil {
			t.Fatalf("rank %d: straggler not dropped: %+v", r, res[r])
		}
	}
	if s := rt.Stats(); s.Suspicions != 0 {
		t.Fatalf("straggler drop must not suspect, got %d suspicions", s.Suspicions)
	}
	if !rt.View().Alive[2] {
		t.Fatal("straggler evicted from view")
	}
}

// TestRejoinRestoresCheckpoint: a crashed, evicted rank heals, rejoins
// at the frontier with the latest checkpoint, and the epoch bump is
// visible to survivors.
func TestRejoinRestoresCheckpoint(t *testing.T) {
	const p = 4
	h := chaos.NewHarness(p, chaos.Config{
		Seed:    9,
		Crashes: []chaos.CrashEvent{{Rank: 3, AtOp: 10, RecoverAfterOps: 300}},
	})
	rt, members := startMembers(t, p, Config{
		Heartbeat:    time.Millisecond,
		SuspectAfter: 25 * time.Millisecond,
		BackoffBase:  2 * time.Millisecond,
		MaxRetries:   3,
		Policy:       DropRescale,
		RejoinWait:   5 * time.Second,
	}, h)

	st := &checkpoint.State{Epoch: 2, Iter: 7, Params: []float32{1, 2}}
	rt.PublishCheckpoint(st, 7)

	// Crash rank 3 (its op counter passes 10 quickly via heartbeats),
	// survivors suspect it during an exchange.
	time.Sleep(60 * time.Millisecond)
	_, errs := runExchange(members[:3], 8, func(r int) []byte { return []byte{byte(r)} })
	for r := 0; r < 3; r++ {
		if errs[r] != nil {
			t.Fatalf("survivor %d: %v", r, errs[r])
		}
	}
	if rt.View().Alive[3] {
		t.Fatal("rank 3 not evicted")
	}
	epochBefore := rt.View().Epoch

	// Rank 3 heals (crash window ends) and rejoins.
	view, frontier, got, err := members[3].AwaitRejoin()
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if !view.Alive[3] || view.Epoch <= epochBefore {
		t.Fatalf("rejoin view wrong: %+v (before %d)", view, epochBefore)
	}
	if frontier != 8 {
		t.Fatalf("frontier = %d, want 8", frontier)
	}
	if got == nil || got.Epoch != 2 || got.Iter != 7 {
		t.Fatalf("checkpoint not restored: %+v", got)
	}
	if rt.Stats().Rejoins != 1 {
		t.Fatalf("rejoins = %d, want 1", rt.Stats().Rejoins)
	}

	// Post-rejoin, a full exchange completes with all 4 again.
	res, errs2 := runExchange(members, 9, func(r int) []byte { return []byte{byte(r)} })
	for r := 0; r < p; r++ {
		if errs2[r] != nil {
			t.Fatalf("post-rejoin rank %d: %v", r, errs2[r])
		}
		if res[r].Contributors != p {
			t.Fatalf("post-rejoin rank %d: %d contributors", r, res[r].Contributors)
		}
	}
}

// TestMaxRejoinsEvicts: the rejoin budget is finite — afterwards the
// rank gets a terminal ErrEvicted (partition flip-flop terminates).
func TestMaxRejoinsEvicts(t *testing.T) {
	rt := New(3, Config{})
	for i := 0; i < maxRejoins; i++ {
		if _, _, _, err := rt.rejoin(1); err != nil {
			t.Fatalf("rejoin %d of %d: %v", i+1, maxRejoins, err)
		}
	}
	if _, _, _, err := rt.rejoin(1); !errors.Is(err, ErrEvicted) {
		t.Fatalf("rejoin %d must evict, got %v", maxRejoins+1, err)
	}
	if IsRecoverable(fmt.Errorf("wrap: %w", ErrNoQuorum)) {
		t.Fatal("ErrNoQuorum must not be recoverable")
	}
	if !IsRecoverable(fmt.Errorf("wrap: %w", ErrEvicted)) {
		t.Fatal("ErrEvicted must be recoverable (until maxRejoins)")
	}
}

// TestPartitionFailsFastTyped: an unrecoverable partition must surface
// ErrNoQuorum (or self-down on the minority side) in bounded time, never
// a silent hang — even under a degradation policy.
func TestPartitionFailsFastTyped(t *testing.T) {
	const p = 4
	h := chaos.NewHarness(p, chaos.Config{
		Seed:      10,
		Partition: &chaos.Partition{Ranks: []int{2, 3}, FromOp: 0, Ops: 0},
	})
	_, members := startMembers(t, p, Config{
		Heartbeat:    time.Millisecond,
		SuspectAfter: 25 * time.Millisecond,
		BackoffBase:  2 * time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		MaxRetries:   2,
		Policy:       DropRescale, // quorum guard must fire regardless
		MaxStall:     3 * time.Second,
	}, h)
	time.Sleep(60 * time.Millisecond) // let cross-partition heartbeats go silent

	done := make(chan error, p)
	for r := 0; r < p; r++ {
		go func(rank int) {
			_, err := members[rank].Exchange(0, []byte{byte(rank)})
			done <- err
		}(r)
	}
	sawNoQuorum := 0
	for i := 0; i < p; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("2-2 partition exchange succeeded; quorum guard broken")
			}
			if errors.Is(err, ErrNoQuorum) {
				sawNoQuorum++
			} else if !errors.Is(err, ErrStalled) && !errors.Is(err, ErrSelfDown) && !errors.Is(err, ErrEvicted) {
				// ErrEvicted is the race-loser's view of the same event: the
				// other side suspected it first; its rejoin budget bounds the
				// ensuing flip-flop.
				t.Fatalf("untyped partition error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("partition exchange hung")
		}
	}
	if sawNoQuorum == 0 {
		t.Fatal("no rank diagnosed the partition as ErrNoQuorum")
	}
}

// TestSyncBroadcastRepairsDrops: the parameter re-broadcast survives
// message loss via syncNack retries.
func TestSyncBroadcastRepairsDrops(t *testing.T) {
	const p = 3
	h := chaos.NewHarness(p, chaos.Config{Seed: 12, Drop: 0.3})
	_, members := startMembers(t, p, Config{
		BackoffBase: 2 * time.Millisecond,
		MaxRetries:  20,
	}, h)
	payload := []byte("params-v1")
	var wg sync.WaitGroup
	got := make([][]byte, p)
	oks := make([]bool, p)
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var in []byte
			if rank == 0 {
				in = payload
			}
			got[rank], oks[rank], errs[rank] = members[rank].SyncBroadcast(1, in, 0)
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if !oks[r] || !bytes.Equal(got[r], payload) {
			t.Fatalf("rank %d: ok=%v payload=%q", r, oks[r], got[r])
		}
	}
}

// TestClusterMetricsZeroAlloc: the runtime's hot-path accounting — the
// calls the per-iteration exchange makes — must not allocate, so the
// compression pipeline's steady-state 0 allocs/op gate holds with the
// cluster attached.
func TestClusterMetricsZeroAlloc(t *testing.T) {
	reg := telemetry.NewRegistry()
	rt := New(4, Config{})
	rt.Instrument(reg)
	st := telemetry.NewStageTimer()
	rt.AttachStageTimer(st)
	allocs := testing.AllocsPerRun(200, func() {
		rt.noteRetry(1, 2)
		rt.noteDegraded(1)
		rt.noteStaleReuse()
		rt.noteStaleness(3)
		rt.noteGossipRound()
		rt.observeRTT(2, 0.001)
	})
	if allocs != 0 {
		t.Fatalf("hot-path accounting allocates %.1f/op, want 0", allocs)
	}
}
