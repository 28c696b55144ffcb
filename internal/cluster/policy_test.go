package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fftgrad/internal/comm"
)

// TestElasticSlotIsNoAbsentee: a reserved elastic slot that has not joined
// is not a missing contributor — with prompt peers a strict exchange over
// NewElastic(2, 3) is a full round, before and without any join.
func TestElasticSlotIsNoAbsentee(t *testing.T) {
	rt := NewElastic(2, 3, Config{})
	mesh := comm.NewMesh(3)
	members := []*Member{rt.Join(mesh.Endpoint(0)), rt.Join(mesh.Endpoint(1))}
	t.Cleanup(func() {
		for _, m := range members {
			m.Close()
		}
	})
	for seq := uint64(0); seq < 5; seq++ {
		res, errs := runExchange(members, seq, func(rank int) []byte { return []byte{byte(rank), byte(seq)} })
		for r, err := range errs {
			if err != nil {
				t.Fatalf("seq %d rank %d: %v", seq, r, err)
			}
			if res[r].Contributors != 2 || res[r].Degraded {
				t.Fatalf("seq %d rank %d: contributors %d, degraded %v; want a full round of 2", seq, r, res[r].Contributors, res[r].Degraded)
			}
		}
	}
	if s := rt.Stats(); s.DegradedIterations != 0 {
		t.Fatalf("%d degraded iterations with every admitted rank prompt", s.DegradedIterations)
	}
}

// scripted is rank 0's transport with the test playing every peer: reply
// decides what a message sent to a peer makes that peer send back.
type scripted struct {
	p      int
	inbox  chan comm.Message
	closed chan struct{}
	reply  func(to int, m comm.Message) []comm.Message

	mu     sync.Mutex
	nacks  int  // data nacks rank 0 sent
	down   bool // the outage is on
	failed int  // Recvs that reported it
}

func (s *scripted) RankID() int { return 0 }
func (s *scripted) P() int      { return s.p }
func (s *scripted) Close() error {
	close(s.closed)
	return nil
}

func (s *scripted) Send(to int, m comm.Message) error {
	s.mu.Lock()
	if m.Kind == kindNack {
		s.nacks++
	}
	s.mu.Unlock()
	for _, r := range s.reply(to, m) {
		r.From = to
		s.inbox <- r
	}
	return nil
}

func (s *scripted) Recv(timeout time.Duration) (comm.Message, error) {
	s.mu.Lock()
	down := s.down
	if down {
		s.failed++
	}
	s.mu.Unlock()
	if down {
		return comm.Message{}, &comm.OpError{Op: "recv", Rank: 0, Peer: -1, Err: comm.ErrPeerDown}
	}
	if timeout > time.Millisecond {
		timeout = time.Millisecond // notice an outage promptly
	}
	select {
	case m := <-s.inbox:
		return m, nil
	case <-s.closed:
		return comm.Message{}, &comm.OpError{Op: "recv", Rank: 0, Peer: -1, Err: comm.ErrClosed}
	case <-time.After(timeout):
		return comm.Message{}, &comm.OpError{Op: "recv", Rank: 0, Peer: -1, Err: comm.ErrTimeout}
	}
}

// TestWaitingPolicies drives the one exchange round under each waiting
// policy against the same scripted peers. Rank 0 of three has ranks 1 and
// 2 as its whole view and as both ring neighbours, so every policy awaits
// the same set. The peers stay within the liveness deadline throughout, so
// an absentee is a straggler, never a suspect, and has no cache.
func TestWaitingPolicies(t *testing.T) {
	const seq = 7
	data := func(j int) comm.Message {
		return comm.Message{Seq: seq, Kind: kindData, Payload: []byte(fmt.Sprintf("p%d", j))}
	}
	type outcome struct {
		err  error // errors.Is target, nil for a completed round
		from []int // the peers whose payload the round must hold
	}
	scenarios := []struct {
		name  string
		reply func(s *scripted, to int, m comm.Message) []comm.Message
		want  map[waiting]outcome
	}{
		{
			// Everyone answers the fan-out at once.
			name: "prompt",
			reply: func(_ *scripted, to int, m comm.Message) []comm.Message {
				if m.Kind == kindData {
					return []comm.Message{data(to)}
				}
				return nil
			},
			want: map[waiting]outcome{strict: {nil, []int{1, 2}}, bounded: {nil, []int{1, 2}}, gossip: {nil, []int{1, 2}}},
		},
		{
			// Rank 2 loses the fan-out and delivers on the first nack.
			name: "repaired",
			reply: func(_ *scripted, to int, m comm.Message) []comm.Message {
				if (to == 1 && m.Kind == kindData) || (to == 2 && m.Kind == kindNack) {
					return []comm.Message{data(to)}
				}
				return nil
			},
			want: map[waiting]outcome{strict: {nil, []int{1, 2}}, bounded: {nil, []int{1, 2}}, gossip: {nil, []int{1, 2}}},
		},
		{
			// Rank 2 never delivers: strict waits out MaxStall, the other
			// two run their ladder and complete without it.
			name: "mute",
			reply: func(_ *scripted, to int, m comm.Message) []comm.Message {
				if to == 1 && m.Kind == kindData {
					return []comm.Message{data(to)}
				}
				return nil
			},
			want: map[waiting]outcome{strict: {ErrStalled, nil}, bounded: {nil, []int{1}}, gossip: {nil, []int{1}}},
		},
		{
			// Rank 2 loses the fan-out, and the local transport dies under
			// the first repair round: the nack returns once the receiver
			// loop has seen the outage (after each failed Recv it marks the
			// member down; by the second the first mark is in place).
			name: "self down",
			reply: func(s *scripted, to int, m comm.Message) []comm.Message {
				if to == 1 && m.Kind == kindData {
					return []comm.Message{data(to)}
				}
				for seen := 0; m.Kind == kindNack && seen < 2; time.Sleep(100 * time.Microsecond) {
					s.mu.Lock()
					s.down = true
					seen = s.failed
					s.mu.Unlock()
				}
				return nil
			},
			want: map[waiting]outcome{strict: {ErrSelfDown, nil}, bounded: {ErrSelfDown, nil}, gossip: {ErrSelfDown, nil}},
		},
	}
	cfg := Config{
		Heartbeat:    time.Hour, // the script plays no heartbeats
		SuspectAfter: time.Hour,
		MaxRetries:   2,
		BackoffBase:  time.Millisecond,
		BackoffMax:   4 * time.Millisecond,
		MaxStall:     150 * time.Millisecond,
	}
	for _, sc := range scenarios {
		for pol, name := range map[waiting]string{strict: "strict", bounded: "bounded", gossip: "gossip"} {
			sc, pol := sc, pol
			t.Run(sc.name+"/"+name, func(t *testing.T) {
				rt := New(3, cfg)
				tr := &scripted{p: 3, inbox: make(chan comm.Message, 256), closed: make(chan struct{})}
				tr.reply = func(to int, m comm.Message) []comm.Message { return sc.reply(tr, to, m) }
				m := rt.Join(tr)
				defer m.Close()

				r, err := m.exchange(seq, []byte("p0"), pol, 4)
				want := sc.want[pol]
				if !errors.Is(err, want.err) {
					t.Fatalf("exchange returned %v, want %v", err, want.err)
				}
				if err == nil {
					got := map[int]string{}
					for j, b := range r.msgs {
						if b != nil {
							got[j] = string(b)
						}
					}
					exp := map[int]string{0: "p0"}
					for _, j := range want.from {
						exp[j] = fmt.Sprintf("p%d", j)
					}
					if fmt.Sprint(got) != fmt.Sprint(exp) {
						t.Fatalf("payload set %v, want %v", got, exp)
					}
				}
				// One absentee at most, so every repair round is one nack:
				// the retry counter equals the nacks on the wire exactly when
				// the exit path accounted its retries once.
				tr.mu.Lock()
				nacks := tr.nacks
				tr.mu.Unlock()
				if got := rt.Stats().Retries; got != uint64(nacks) {
					t.Fatalf("%d retries accounted for %d nack rounds", got, nacks)
				}
				if sc.name == "prompt" && nacks != 0 {
					t.Fatalf("%d nacks with prompt peers", nacks)
				}
				if sc.name != "prompt" && nacks == 0 {
					t.Fatal("the cache-less absentee was never nacked")
				}
			})
		}
	}
}
