package cluster

import (
	"testing"
	"time"

	"fftgrad/internal/comm"
)

// TestLateDataIsNeverPended: data for a seq this member has completed — a
// late resend or a duplicate that lands while it waits for a sync — is
// banked as its sender's freshest payload when it is that, and handed back
// otherwise; it never sits in pending, where no exchange would adopt it.
// Rank 0 of three runs 30 bounded rounds against scripted peers. Rank 2
// misses every fifth round, which folds its cache instead. After each of
// those rounds a sync from rank 1 follows, and ahead of it land rank 2's
// missed payload and duplicates of both peers' last two.
func TestLateDataIsNeverPended(t *testing.T) {
	const rounds = 30
	data := func(j int, seq uint64) comm.Message {
		return comm.Message{From: j, Seq: seq, Kind: kindData, Payload: frame(j, seq)}
	}
	s := &scripted{p: 3, inbox: make(chan comm.Message, 16), closed: make(chan struct{})}
	s.reply = func(to int, m comm.Message) []comm.Message {
		if m.Kind == kindData && !(to == 2 && m.Seq%5 == 0) {
			return []comm.Message{data(to, m.Seq)}
		}
		return nil
	}
	l := newLender(s)
	m := New(3, Config{
		Heartbeat: time.Hour, SuspectAfter: time.Hour,
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond, MaxRetries: 1, MaxStall: 10 * time.Second,
	}).Join(l)
	for seq := uint64(1); seq <= rounds; seq++ {
		res, err := m.ExchangeBounded(seq, frame(0, seq), 2)
		if err != nil {
			t.Fatal(err)
		}
		if seq%5 != 0 {
			continue
		}
		if !res.Stale[2] {
			t.Fatalf("round %d: rank 2's slot is fresh, want its cache folded", seq)
		}
		for _, late := range []comm.Message{
			data(2, seq), data(1, seq), data(2, seq-1), data(1, seq-1),
			{From: 1, Seq: seq, Kind: kindSync, Payload: frame(1, seq)},
		} {
			s.inbox <- late
		}
		if _, ok, err := m.SyncBroadcast(seq, nil, 1); err != nil || !ok {
			t.Fatalf("sync %d: ok %v, %v", seq, ok, err)
		}
		for k := range m.pending {
			if k <= seq {
				t.Errorf("after sync %d: pending holds seq %d", seq, k)
			}
		}
		if m.lastGoodSeq[2] != seq {
			t.Errorf("after sync %d: rank 2's cache is from seq %d, want its late seq-%d payload banked", seq, m.lastGoodSeq[2], seq)
		}
	}
	m.Close()
	for _, e := range l.audit() {
		t.Error(e)
	}
}
