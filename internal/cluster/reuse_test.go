package cluster

import (
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"fftgrad/internal/comm"
	"fftgrad/internal/telemetry"
)

// TestHeartbeatsCarryNoPayload: a ping carries its send time in Seq and
// no payload, the pong echoes Seq with no payload, and the echo still
// fills the RTT gauges — between a member and a bare endpoint, and
// between two members.
func TestHeartbeatsCarryNoPayload(t *testing.T) {
	rt := New(2, Config{Heartbeat: time.Millisecond})
	rt.Instrument(telemetry.NewRegistry())
	mesh := comm.NewMesh(2)
	m := rt.Join(mesh.Endpoint(0))
	defer m.Close()
	peer := mesh.Endpoint(1)
	defer peer.Close()

	before := uint64(time.Now().UnixNano())
	if err := peer.Send(0, comm.Message{Seq: 12345, Kind: kindPing}); err != nil {
		t.Fatal(err)
	}
	var sawPing, sawPong bool
	for deadline := time.Now().Add(5 * time.Second); !(sawPing && sawPong); {
		if time.Now().After(deadline) {
			t.Fatalf("ping seen %v, pong seen %v", sawPing, sawPong)
		}
		msg, err := peer.Recv(10 * time.Millisecond)
		if err != nil {
			continue
		}
		if msg.Payload != nil {
			t.Fatalf("a kind-%d heartbeat carries %d payload bytes", msg.Kind, len(msg.Payload))
		}
		switch msg.Kind {
		case kindPing:
			if msg.Seq < before || msg.Seq > uint64(time.Now().UnixNano()) {
				t.Fatalf("ping Seq %d is no send time", msg.Seq)
			}
			sawPing = true
			_ = peer.Send(0, comm.Message{Seq: msg.Seq, Kind: kindPong})
		case kindPong:
			if msg.Seq != 12345 {
				t.Fatalf("pong echoes Seq %d, want 12345", msg.Seq)
			}
			sawPong = true
		}
	}
	waitRTT(t, rt, 1)

	rt2 := New(2, Config{Heartbeat: time.Millisecond})
	rt2.Instrument(telemetry.NewRegistry())
	mesh2 := comm.NewMesh(2)
	for r := 0; r < 2; r++ {
		defer rt2.Join(mesh2.Endpoint(r)).Close()
	}
	waitRTT(t, rt2, 0)
	waitRTT(t, rt2, 1)
}

// waitRTT waits for the RTT gauge of peer to fill.
func waitRTT(t *testing.T, rt *Runtime, peer int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); rt.rtt[peer].Value() <= 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the RTT gauge of rank %d never filled", peer)
		}
	}
}

// TestSyncNackResendNotTorn: a peer spams sync nacks while the root
// re-broadcasts a new payload each round. Every resend must be one
// broadcast's bytes, never a mix of two, and under -race the resend must
// not read the root's buffer while the next broadcast rewrites it.
func TestSyncNackResendNotTorn(t *testing.T) {
	rt := New(2, Config{Heartbeat: time.Hour})
	mesh := comm.NewMesh(2)
	root := rt.Join(mesh.Endpoint(0))
	defer root.Close()
	peer := mesh.Endpoint(1)
	defer peer.Close()

	const rounds = 200
	done := make(chan struct{})
	var syncs, resends, torn int
	seen := make(map[uint64]bool) // the seqs whose broadcast arrived
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = peer.Send(0, comm.Message{Kind: kindSyncNack})
			msg, err := peer.Recv(100 * time.Microsecond)
			if err != nil || msg.Kind != kindSync {
				continue
			}
			syncs++
			if seen[msg.Seq] {
				resends++
			}
			seen[msg.Seq] = true
			for _, b := range msg.Payload {
				if b != msg.Payload[0] {
					torn++
					break
				}
			}
		}
	}()
	payload := make([]byte, 256<<10)
	for k := 1; k <= rounds; k++ {
		for i := range payload {
			payload[i] = byte(k)
		}
		if _, ok, err := root.SyncBroadcast(uint64(k), payload, 0); err != nil || !ok {
			t.Fatalf("round %d: ok %v, %v", k, ok, err)
		}
	}
	close(done)
	wg.Wait()
	if torn > 0 {
		t.Fatalf("%d of %d syncs received mixed two broadcasts", torn, syncs)
	}
	if resends == 0 {
		t.Fatalf("%d syncs received, none a resend: nothing checked", syncs)
	}
}

// TestExchangeAllocatesOnlyDataCopies: a steady-state strict Exchange
// between two mesh members allocates nothing but the mesh's copy of each
// data payload, one per member per round; heartbeats run meanwhile.
func TestExchangeAllocatesOnlyDataCopies(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	_, members := startMembers(t, 2, Config{Heartbeat: time.Millisecond, BackoffBase: 100 * time.Millisecond}, nil)
	payloads := [][]byte{make([]byte, 4096), make([]byte, 4096)}
	seq := uint64(0)
	start, done := make(chan uint64), make(chan error, 1)
	go func() {
		for s := range start {
			_, err := members[1].Exchange(s, payloads[1])
			done <- err
		}
	}()
	defer close(start)
	round := func() {
		seq++
		start <- seq
		if _, err := members[0].Exchange(seq, payloads[0]); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ { // fill the resend ring and arm the timers
		round()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(100, round); n > 2 {
		t.Errorf("an exchange round of two members allocates %.2f allocs, want the 2 data copies", n)
	}
}

// TestViewSurvivesChanges: a View handed out before a join, a suspicion
// or a rejoin reads the same afterwards, and the next View shows the
// change.
func TestViewSurvivesChanges(t *testing.T) {
	rt := NewElastic(3, 4, Config{})
	for _, change := range []struct {
		name  string
		apply func() error
		rank  int
		alive bool
	}{
		{"join", func() error { _, _, _, err := rt.AdmitJoin(3); return err }, 3, true},
		{"suspect", func() error { _, err := rt.suspect(2, 0); return err }, 2, false},
		{"rejoin", func() error { _, _, _, err := rt.rejoin(2); return err }, 2, true},
	} {
		v := rt.View()
		was := slices.Clone(v.Alive)
		if err := change.apply(); err != nil {
			t.Fatalf("%s: %v", change.name, err)
		}
		if !slices.Equal(v.Alive, was) {
			t.Fatalf("%s rewrote a view handed out before it: %v, was %v", change.name, v.Alive, was)
		}
		if now := rt.View(); now.Alive[change.rank] != change.alive || now.Epoch != v.Epoch+1 {
			t.Fatalf("%s: view after is %+v", change.name, now)
		}
	}
}
