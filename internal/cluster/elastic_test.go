package cluster

// Unit tests for the asynchrony/elasticity primitives: deterministic
// backoff jitter, the halt path out of a parked rejoin, the
// bounded-staleness throttle and fold, ring-neighbor gossip, and the
// elastic join handshake.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fftgrad/internal/chaos"
	"fftgrad/internal/checkpoint"
	"fftgrad/internal/comm"
)

// TestBackoffJitterDeterministic: the retry timeline of a chaos run must
// be bit-reproducible. The jitter is a stateless hash of (Seed, rank,
// seq, attempt) — same seed gives the same backoff grid regardless of
// how many draws other exchanges consumed, and query order is
// irrelevant. A stateful RNG would fail the reordered comparison: one
// extra retry anywhere would shift every later draw.
func TestBackoffJitterDeterministic(t *testing.T) {
	grid := func(seed int64, reversed bool) []time.Duration {
		_, members := startMembers(t, 2, Config{Seed: seed}, nil)
		var order [][3]int // (rank, seq, attempt)
		for r := 0; r < 2; r++ {
			for s := 0; s < 8; s++ {
				for a := 0; a < 5; a++ {
					order = append(order, [3]int{r, s, a})
				}
			}
		}
		if reversed {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		// Store by key, not by visit order, so forward and reversed
		// walks compare element-for-element.
		out := make([]time.Duration, len(order))
		for _, k := range order {
			out[(k[0]*8+k[1])*5+k[2]] = members[k[0]].attemptTimeout(uint64(k[1]), k[2], 0)
		}
		return out
	}
	a := grid(7, false)
	b := grid(7, false)
	c := grid(7, true) // different query order, same (seq, attempt) keys
	d := grid(8, false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, run-to-run drift at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			t.Fatalf("query order changed the jitter at %d: %v vs %v", i, a[i], c[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != d[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 7 and seed 8 produced identical backoff grids")
	}
}

// TestAwaitRejoinHaltPromptly: a rank parked in AwaitRejoin waiting for
// its transport to heal must exit via ErrHalted promptly when the run is
// halted — not sit out the full RejoinWait. Regression test for drains
// hanging on a crashed worker.
func TestAwaitRejoinHaltPromptly(t *testing.T) {
	halt := make(chan struct{})
	cfg := Config{RejoinWait: 30 * time.Second, Halt: halt}
	// Rank 1's transport enters a crash window that outlasts the test, so
	// its rejoin parks for real: selfDown cannot clear while Recv fails.
	h := chaos.NewHarness(2, chaos.Config{
		Crashes: []chaos.CrashEvent{{Rank: 1, AtOp: 1, RecoverAfterOps: 1 << 40}},
	})
	_, members := startMembers(t, 2, cfg, h)
	m := members[1]
	deadline := time.Now().Add(5 * time.Second)
	for !m.selfDown.Load() {
		if time.Now().After(deadline) {
			t.Fatal("crash window never took rank 1's transport down")
		}
		time.Sleep(time.Millisecond)
	}

	type out struct {
		err     error
		elapsed time.Duration
	}
	done := make(chan out, 1)
	start := time.Now()
	go func() {
		_, _, _, err := m.AwaitRejoin()
		done <- out{err, time.Since(start)}
	}()
	time.Sleep(30 * time.Millisecond)
	close(halt)
	select {
	case o := <-done:
		if !errors.Is(o.err, ErrHalted) {
			t.Fatalf("parked rejoin returned %v, want ErrHalted", o.err)
		}
		if o.elapsed > 2*time.Second {
			t.Fatalf("halt took %s to unpark the rejoin", o.elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("halt never unparked the rejoin")
	}
}

// TestWaitWithinWindowThrottle: the bounded-staleness throttle blocks a
// front rank that would run more than `window` seqs ahead of the
// slowest live frontier, releases it when the laggard advances, and
// aborts with ErrHalted on halt.
func TestWaitWithinWindowThrottle(t *testing.T) {
	halt := make(chan struct{})
	rt, _ := startMembers(t, 2, Config{Halt: halt}, nil)

	// Within the window: no blocking.
	if waited, err := rt.WaitWithinWindow(0, 2, 2); err != nil || waited {
		t.Fatalf("in-window wait blocked: waited=%v err=%v", waited, err)
	}

	// Beyond the window: blocks until rank 1's frontier catches up.
	released := make(chan error, 1)
	go func() {
		_, err := rt.WaitWithinWindow(0, 5, 2)
		released <- err
	}()
	select {
	case <-released:
		t.Fatal("front rank ran 5 seqs ahead of a frontier at 0 with window 2")
	case <-time.After(20 * time.Millisecond):
	}
	rt.noteExchangeStart(1, 3) // laggard advances: 5 <= 3+2
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("throttle released with error: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("throttle never released after the laggard advanced")
	}

	// Halt aborts a blocked wait.
	go func() {
		_, err := rt.WaitWithinWindow(0, 50, 2)
		released <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(halt)
	select {
	case err := <-released:
		if !errors.Is(err, ErrHalted) {
			t.Fatalf("halted wait returned %v, want ErrHalted", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("halt never aborted the throttle")
	}
}

// TestExchangeBoundedFoldsStaleCache: a live-but-lagging peer's freshest
// cached gradient folds into the round tagged with its staleness, and a
// cache older than the window is excluded rather than folded.
func TestExchangeBoundedFoldsStaleCache(t *testing.T) {
	cfg := Config{
		Heartbeat:    time.Millisecond,
		SuspectAfter: 10 * time.Second, // rank 1 stays classified alive
		BackoffBase:  2 * time.Millisecond,
		MaxStall:     10 * time.Second,
	}
	rt, members := startMembers(t, 3, cfg, nil)

	// Warm every cache with two full rounds.
	for seq := uint64(0); seq < 2; seq++ {
		_, errs := runExchange(members, seq, func(rank int) []byte {
			return []byte(fmt.Sprintf("r%d-s%d", rank, seq))
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("warm-up rank %d: %v", r, err)
			}
		}
	}

	// Rank 2 goes quiet (still heartbeating). Ranks 0 and 1 run round 2
	// bounded with window 4: rank 2's seq-1 payload folds in, 1 stale.
	var wg sync.WaitGroup
	res := make([]*ExchangeResult, 2)
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res[r], errs[r] = members[r].ExchangeBounded(2, []byte(fmt.Sprintf("r%d-s2", r)), 4)
		}(r)
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			t.Fatalf("bounded exchange rank %d: %v", r, errs[r])
		}
		if got := string(res[r].Msgs[2]); got != "r2-s1" {
			t.Fatalf("rank %d folded %q, want the seq-1 cache", r, got)
		}
		if !res[r].Stale[2] || res[r].StaleBy[2] != 1 {
			t.Fatalf("rank %d stale tags wrong: stale=%v by=%v", r, res[r].Stale[2], res[r].StaleBy)
		}
	}
	if s := rt.Stats(); s.StaleReuses == 0 || s.StalenessMax != 1 {
		t.Fatalf("staleness accounting: %+v", s)
	}

	// Window 0 at round 3: the cache is beyond every window — excluded.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res[r], errs[r] = members[r].ExchangeBounded(3, []byte(fmt.Sprintf("r%d-s3", r)), 0)
		}(r)
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			t.Fatalf("window-0 exchange rank %d: %v", r, errs[r])
		}
		if res[r].Msgs[2] != nil {
			t.Fatalf("rank %d folded a beyond-window cache", r)
		}
	}
}

// TestGossipExchangeMixesNeighbors: every rank gossips with exactly its
// two ring neighbors under Metropolis weight 1/(deg+1), no root and no
// global collection, and the rounds are counted.
func TestGossipExchangeMixesNeighbors(t *testing.T) {
	const p = 4
	rt, members := startMembers(t, p, Config{}, nil)
	res := make([]*GossipResult, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			res[rank], errs[rank] = members[rank].GossipExchange(0, []byte(fmt.Sprintf("g%d", rank)), 0)
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("gossip rank %d: %v", r, errs[r])
		}
		if len(res[r].Peers) != 2 {
			t.Fatalf("rank %d gossiped with %v, want its 2 ring neighbors", r, res[r].Peers)
		}
		want := map[int]bool{(r + 1) % p: true, (r + p - 1) % p: true}
		for k, peer := range res[r].Peers {
			if !want[peer] {
				t.Fatalf("rank %d mixed with non-neighbor %d", r, peer)
			}
			if got := string(res[r].Msgs[k]); got != fmt.Sprintf("g%d", peer) {
				t.Fatalf("rank %d got %q from %d", r, got, peer)
			}
			if res[r].Stale[k] {
				t.Fatalf("fresh gossip tagged stale: rank %d peer %d", r, peer)
			}
		}
		if w := res[r].PeerWeight; w < 1.0/3-1e-9 || w > 1.0/3+1e-9 {
			t.Fatalf("rank %d Metropolis weight %v, want 1/3", r, w)
		}
	}
	if s := rt.Stats(); s.GossipRounds != p {
		t.Fatalf("gossip rounds %d, want %d", s.GossipRounds, p)
	}
}

// TestAdmitJoinGrowsView: the elastic handshake admits a brand-new rank,
// bumps the epoch (forcing survivor re-sync), hands back the newest
// checkpoint and the frontier, and the joiner then participates in the
// very next exchange as a full member.
func TestAdmitJoinGrowsView(t *testing.T) {
	cfg := Config{MaxStall: 10 * time.Second}
	rt := NewElastic(2, 3, cfg)
	mesh := comm.NewMesh(3)
	members := make([]*Member, 3)
	for r := 0; r < 2; r++ {
		members[r] = rt.Join(mesh.Endpoint(r))
	}
	t.Cleanup(func() {
		for _, m := range members {
			if m != nil {
				m.Close()
			}
		}
	})

	for seq := uint64(0); seq < 3; seq++ {
		_, errs := runExchange(members[:2], seq, func(rank int) []byte {
			return []byte{byte(rank), byte(seq)}
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("pre-join round %d rank %d: %v", seq, r, err)
			}
		}
	}
	want := checkpoint.State{Epoch: 1, Iter: 2}
	rt.PublishCheckpoint(&want, 3)
	epochBefore := rt.View().Epoch

	view, frontier, st, err := rt.AdmitJoin(2)
	if err != nil {
		t.Fatal(err)
	}
	if frontier != 2 {
		t.Fatalf("join frontier %d, want the last started seq 2", frontier)
	}
	if st == nil || st.Iter != 2 {
		t.Fatalf("join checkpoint %+v, want the published one", st)
	}
	if view.Epoch == epochBefore {
		t.Fatal("join did not bump the view epoch")
	}
	alive := 0
	for _, a := range view.Alive {
		if a {
			alive++
		}
	}
	if alive != 3 {
		t.Fatalf("view has %d live ranks after the join, want 3", alive)
	}
	if _, _, _, err := rt.AdmitJoin(2); err == nil {
		t.Fatal("double admission accepted")
	}

	members[2] = rt.Join(mesh.Endpoint(2))
	res, errs := runExchange(members, 3, func(rank int) []byte {
		return []byte{byte(rank), 3}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("post-join round rank %d: %v", r, err)
		}
		if res[r].Contributors != 3 {
			t.Fatalf("rank %d saw %d contributors post-join, want 3", r, res[r].Contributors)
		}
	}
	if s := rt.Stats(); s.ElasticJoins != 1 {
		t.Fatalf("elastic joins %d, want 1", s.ElasticJoins)
	}
}

// TestJoinerAppliesWhilePublishesContinue: joiners apply the checkpoint
// AdmitJoin handed them while the publisher keeps capturing into the
// states its publishes hand back. A joiner's state is its own copy, so it
// stays whole however many publishes follow (and -race sees no shared
// write).
func TestJoinerAppliesWhilePublishesContinue(t *testing.T) {
	const joiners, n = 8, 1 << 12
	rt := NewElastic(1, 1+joiners, Config{})
	capture := func(st *checkpoint.State, seq uint64) *checkpoint.State {
		if st == nil {
			st = &checkpoint.State{Params: make([]float32, n)}
		}
		st.Iter = int64(seq)
		for i := range st.Params {
			st.Params[i] = float32(seq)
		}
		return st
	}
	rt.PublishCheckpoint(capture(nil, 0), 0)
	stop, published := make(chan struct{}), make(chan uint64)
	go func() {
		var spare *checkpoint.State
		seq := uint64(1)
		for ; ; seq++ {
			select {
			case <-stop:
				published <- seq
				return
			default:
			}
			spare = rt.PublishCheckpoint(capture(spare, seq), seq)
		}
	}()
	for r := 1; r <= joiners; r++ {
		_, _, st, err := rt.AdmitJoin(r)
		if err != nil {
			t.Fatal(err)
		}
		applied := make([]float32, n)
		for rep := 0; rep < 20; rep++ {
			copy(applied, st.Params)
			for i, v := range applied {
				if v != float32(st.Iter) {
					t.Fatalf("joiner %d: param %d = %v in the state of publish %d: a later publish wrote into it", r, i, v, st.Iter)
				}
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	close(stop)
	if seq := <-published; seq < 2 {
		t.Errorf("only %d publishes overlapped the joins", seq)
	}
}
