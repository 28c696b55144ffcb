package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fftgrad/internal/chaos"
	"fftgrad/internal/comm"
)

// lender stands between a member and its transport and audits the
// receive contract. It lends every received payload in a buffer of its
// own and records it; a Release must name a buffer that is lent and not
// yet released, and poisons it, so a late reader sees garbage instead of
// the bytes it expects (and the race detector sees the write).
type lender struct {
	comm.Transport
	mu   sync.Mutex
	lent map[*byte]bool // by first byte: true while lent, false once released
	bad  []string       // contract breaches
}

const poison = 0xDB

func newLender(tr comm.Transport) *lender {
	return &lender{Transport: tr, lent: make(map[*byte]bool)}
}

func (l *lender) Recv(d time.Duration) (comm.Message, error) {
	msg, err := l.Transport.Recv(d)
	if err != nil || msg.Payload == nil {
		return msg, err
	}
	b := make([]byte, len(msg.Payload), len(msg.Payload)+1) // cap ≥ 1: every buffer has an address
	copy(b, msg.Payload)
	l.Transport.Release(msg.Payload)
	l.mu.Lock()
	l.lent[&b[:1][0]] = true
	l.mu.Unlock()
	msg.Payload = b
	return msg, nil
}

func (l *lender) Release(b []byte) {
	if b == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if cap(b) == 0 || !l.lent[&b[:1][0]] {
		l.bad = append(l.bad, fmt.Sprintf("released a %d-byte buffer that is not lent", len(b)))
		return
	}
	l.lent[&b[:1][0]] = false
	b = b[:cap(b)]
	for i := range b {
		b[i] = poison
	}
}

// isLent reports whether b is a payload lent and not yet released.
func (l *lender) isLent(b []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return cap(b) > 0 && l.lent[&b[:1][0]]
}

// audit reports the breaches seen and every payload still lent.
func (l *lender) audit() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.bad
	held := 0
	for _, on := range l.lent {
		if on {
			held++
		}
	}
	if held > 0 {
		out = append(out, fmt.Sprintf("%d of %d lent payloads never released", held, len(l.lent)))
	}
	return out
}

// frame is rank's payload for seq: a header, a pattern drawn from both
// and a checksum byte that verifyFrame checks.
func frame(rank int, seq uint64) []byte {
	b := make([]byte, 64)
	b[0] = byte(rank)
	binary.LittleEndian.PutUint64(b[1:9], seq)
	var sum byte
	for i := range b[:63] {
		if i >= 9 {
			b[i] = byte(rank*31) + byte(seq) + byte(i)
		}
		sum += b[i]
	}
	b[63] = sum
	return b
}

// verifyFrame is the wire check the members run: a chaos bit flip fails it.
func verifyFrame(b []byte) error {
	if len(b) != 64 {
		return errors.New("frame length")
	}
	var sum byte
	for _, v := range b[:63] {
		sum += v
	}
	if sum != b[63] {
		return errors.New("frame checksum")
	}
	return nil
}

// checkLent holds one payload a member returned as rank j's: a lent
// buffer, never a released one, holding a frame of rank j's.
func checkLent(l *lender, b []byte, j int) error {
	if !l.isLent(b) {
		return fmt.Errorf("rank %d's payload is not a lent buffer", j)
	}
	if verifyFrame(b) != nil || int(b[0]) != j {
		return fmt.Errorf("rank %d's payload does not hold its frame: % x…", j, b[:4])
	}
	return nil
}

// TestReceivedPayloadsReleasedOnce drives three members directly under
// chaos drops, duplicates, delays and bit flips, once per waiting policy,
// with a parameter sync every fifth round. Every peer payload a result or
// a sync hands out must be lent and unreleased when it is returned, and
// once the members are closed every payload their transports lent must
// have been released exactly once.
func TestReceivedPayloadsReleasedOnce(t *testing.T) {
	const p, rounds = 3, 30
	for _, pol := range []waiting{strict, bounded, gossip} {
		t.Run([]string{"strict", "bounded", "gossip"}[pol], func(t *testing.T) {
			rt := New(p, Config{
				Heartbeat:    time.Millisecond,
				SuspectAfter: 10 * time.Second, // every rank stays alive
				BackoffBase:  2 * time.Millisecond,
				BackoffMax:   20 * time.Millisecond,
				MaxRetries:   8,
				MaxStall:     30 * time.Second,
				SendDepth:    rounds + 1,
				Verify:       verifyFrame,
			})
			h := chaos.NewHarness(p, chaos.Config{
				Seed: 46, Drop: 0.05, Dup: 0.1, DelayProb: 0.1, Delay: 3 * time.Millisecond, Corrupt: 0.05,
			})
			mesh := comm.NewMesh(p)
			lenders := make([]*lender, p)
			members := make([]*Member, p)
			for r := range members {
				lenders[r] = newLender(h.Wrap(mesh.Endpoint(r)))
				members[r] = rt.Join(lenders[r])
			}
			errs := make([]error, p)
			var wg sync.WaitGroup
			for r := range members {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					errs[r] = drive(members[r], lenders[r], pol, rounds)
				}(r)
			}
			wg.Wait()
			for _, m := range members {
				m.Close()
			}
			for r, err := range errs {
				if err != nil {
					t.Errorf("rank %d: %v", r, err)
				}
			}
			for r, l := range lenders {
				for _, e := range l.audit() {
					t.Errorf("rank %d: %s", r, e)
				}
			}
			if s := h.Stats(); s.Drops == 0 || s.Dups == 0 || s.Corruptions == 0 {
				t.Errorf("chaos injected too little to show anything: %+v", s)
			}
		})
	}
}

// drive runs rounds exchanges of one rank under pol and holds every
// payload handed out to checkLent.
func drive(m *Member, l *lender, pol waiting, rounds int) error {
	for seq := uint64(1); seq <= uint64(rounds); seq++ {
		var msgs [][]byte
		switch pol {
		case strict:
			res, err := m.Exchange(seq, frame(m.rank, seq))
			if err != nil {
				return err
			}
			msgs = res.Msgs
		case bounded:
			res, err := m.ExchangeBounded(seq, frame(m.rank, seq), 2)
			if err != nil {
				return err
			}
			msgs = res.Msgs
		case gossip:
			res, err := m.GossipExchange(seq, frame(m.rank, seq), 2)
			if err != nil {
				return err
			}
			for i, j := range res.Peers {
				if err := checkLent(l, res.Msgs[i], j); err != nil {
					return fmt.Errorf("round %d: %w", seq, err)
				}
			}
		}
		for j, b := range msgs {
			if j == m.rank || b == nil {
				continue
			}
			if err := checkLent(l, b, j); err != nil {
				return fmt.Errorf("round %d: %w", seq, err)
			}
		}
		if seq%5 == 0 {
			got, ok, err := m.SyncBroadcast(seq, frame(0, seq), 0)
			if err != nil {
				return fmt.Errorf("sync %d: %w", seq, err)
			}
			if ok && m.rank != 0 {
				if err := checkLent(l, got, 0); err != nil {
					return fmt.Errorf("sync %d: %w", seq, err)
				}
			}
		}
	}
	return nil
}

// FuzzMemberReceive feeds arbitrary (Kind, Seq, From, payload) frames to
// rank 0 of three through a scripted transport while it runs a strict
// exchange, a bounded one, a sync as a receiver and one as the root, and
// another strict exchange. Whatever the frames, nothing panics, no payload
// is released twice or without being lent, no released payload is in a
// returned result, and after Close every lent payload has been released.
func FuzzMemberReceive(f *testing.F) {
	f.Add([]byte{1, 1, 1, 3, 1, 1, 2, 3, 5, 3, 1, 2, 1, 2, 1, 2})
	f.Add([]byte{1, 1, 1, 3, 1, 1, 1, 3, 1, 0, 2, 1, 5, 4, 0, 3, 3, 0, 1, 1, 1, 4, 2, 2})
	f.Add([]byte{5, 3, 1, 2, 5, 2, 1, 2, 1, 2, 9, 1, 1, 2, 2, 1, 7, 1, 1, 3, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		s := &scripted{p: 3, inbox: make(chan comm.Message, len(in)/4), closed: make(chan struct{}),
			reply: func(int, comm.Message) []comm.Message { return nil }}
		for ; len(in) >= 4; in = in[4:] {
			msg := comm.Message{Kind: in[0] % 8, Seq: uint64(in[1] % 8), From: int(in[2]%5) - 1}
			if n := int(in[3] % 4); n > 0 {
				msg.Payload = make([]byte, n, n+1)
			}
			s.inbox <- msg
		}
		l := newLender(s)
		rt := New(3, Config{
			Heartbeat: time.Hour, SuspectAfter: time.Hour, OnStraggler: StragglerDrop, Policy: StaleReuse,
			BackoffBase: 100 * time.Microsecond, BackoffMax: time.Millisecond, MaxRetries: 1, MaxStall: 20 * time.Millisecond,
		})
		m := rt.Join(l)
		check := func(what string, msgs [][]byte) {
			for j, b := range msgs {
				if j != 0 && b != nil && !l.isLent(b) {
					t.Fatalf("%s returned rank %d's payload after it was released", what, j)
				}
			}
		}
		own := []byte{0}
		if res, err := m.Exchange(1, own); err == nil {
			check("Exchange", res.Msgs)
		}
		if res, err := m.ExchangeBounded(2, own, 1); err == nil {
			check("ExchangeBounded", res.Msgs)
		}
		if got, ok, err := m.SyncBroadcast(3, nil, 1); err == nil && ok {
			check("SyncBroadcast", [][]byte{nil, got})
		}
		if _, _, err := m.SyncBroadcast(4, own, 0); err != nil {
			t.Fatalf("root sync: %v", err)
		}
		if res, err := m.Exchange(5, own); err == nil {
			check("Exchange", res.Msgs)
		}
		m.Close()
		for _, e := range l.audit() {
			t.Error(e)
		}
	})
}

// TestFoldedCacheOutlivesItsReplacement: a bounded round folds rank 2's
// cached payload, then banks a newer one from rank 2 while it still waits
// for rank 1. The cache it replaced is in the result, so it must stay lent
// until the next exchange call, and then be released.
func TestFoldedCacheOutlivesItsReplacement(t *testing.T) {
	data := func(j int, seq uint64) comm.Message {
		return comm.Message{From: j, Seq: seq, Kind: kindData, Payload: frame(j, seq)}
	}
	s := &scripted{p: 3, inbox: make(chan comm.Message, 16), closed: make(chan struct{})}
	s.reply = func(to int, m comm.Message) []comm.Message {
		switch {
		case m.Seq == 1 && m.Kind == kindData && to == 2:
			return []comm.Message{data(2, 1)} // rank 1 sends nothing at seq 1
		case m.Seq == 3 && m.Kind == kindNack && to == 1:
			s.inbox <- data(2, 2) // rank 2's late seq-2 payload lands first
			return []comm.Message{data(1, 3)}
		}
		return nil
	}
	l := newLender(s)
	m := New(3, Config{
		Heartbeat: time.Hour, SuspectAfter: time.Hour, OnStraggler: StragglerDrop,
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond, MaxRetries: 1, MaxStall: 10 * time.Second,
	}).Join(l)
	defer m.Close()
	if _, err := m.Exchange(1, frame(0, 1)); err != nil {
		t.Fatal(err)
	}
	res, err := m.ExchangeBounded(3, frame(0, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stale[2] || res.StaleBy[2] != 2 || res.Stale[1] {
		t.Fatalf("stale %v by %v, want rank 2's seq-1 cache folded and rank 1 fresh", res.Stale, res.StaleBy)
	}
	for j := 1; j < 3; j++ {
		if err := checkLent(l, res.Msgs[j], j); err != nil {
			t.Fatal(err)
		}
	}
	folded := res.Msgs[2]
	if m.lastGoodSeq[2] != 2 {
		t.Fatalf("rank 2's cache is from seq %d, want the banked seq 2", m.lastGoodSeq[2])
	}
	if _, err := m.ExchangeBounded(4, frame(0, 4), 2); err != nil {
		t.Fatal(err)
	}
	if l.isLent(folded) {
		t.Fatal("the replaced cache is still lent after the next exchange call")
	}
}
