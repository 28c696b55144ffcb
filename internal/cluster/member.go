package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fftgrad/internal/checkpoint"
	"fftgrad/internal/comm"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// Wire message kinds on top of comm.Message.Kind.
const (
	kindData     = 1 // one rank's compressed gradient for exchange Seq
	kindNack     = 2 // "resend your data for Seq" (repair request)
	kindPing     = 3 // heartbeat, Seq = sender's send-time nanos, no payload
	kindPong     = 4 // heartbeat echo, Seq mirrored back
	kindSync     = 5 // parameter re-broadcast from the root, tagged Seq
	kindSyncNack = 6 // "resend the sync for Seq"
)

// The per-member resend cache depth is Config.SendDepth: enough recent
// exchange payloads for nack repair across the maximum seq drift between
// live ranks. A rejoiner enters at the frontier, so it never needs a
// payload older than the deepest in-flight exchange; the default 4 is
// generous at one seq per iteration, and the bucketed exchange (many
// seqs per iteration) raises it.

// sentSlot is one resend-cache entry (see Config.SendDepth).
type sentSlot struct {
	seq     uint64
	payload []byte
}

// ExchangeResult is one completed failure-aware allgather. The member
// owns it and its slices: they are valid until the member's next exchange
// call (Exchange, ExchangeBounded or GossipExchange).
type ExchangeResult struct {
	// Msgs[j] is rank j's payload, nil when rank j did not contribute
	// (dropped under DropRescale / StragglerDrop and nothing cached).
	Msgs [][]byte
	// Stale[j] marks contributions served from the previous round's cache.
	Stale []bool
	// StaleBy[j] is how many seqs behind the exchange a stale contribution
	// was: 0 for fresh entries, and for every entry of the strict path,
	// which never measures a cache's age.
	StaleBy []uint64
	// View is the membership view the exchange completed under.
	View View
	// Contributors counts non-nil entries of Msgs.
	Contributors int
	// Degraded is true when Contributors < p.
	Degraded bool
	// EpochChanged is true when the view epoch moved during this exchange
	// (a suspicion or rejoin happened); the caller should force a
	// parameter re-sync to repair any divergence.
	EpochChanged bool

	// SlowestPeer is the rank whose *fresh* payload arrived last during
	// this exchange, -1 when no fresh peer payload arrived after the
	// exchange began (all adopted from pending, stale-filled, or p == 1).
	// This is the straggler-attribution signal: a chaos/netsim straggler
	// delays message *delivery*, so its own iteration runs on time while
	// every peer sits in collect waiting for its data — arrival order
	// inside the exchange is the only place that shows up.
	SlowestPeer int
	// WaitNs is the marginal wait SlowestPeer caused: its arrival time
	// minus the next-latest fresh arrival. That difference is time this
	// rank spent blocked on SlowestPeer alone — had it arrived with the
	// pack, the exchange would have completed WaitNs earlier.
	WaitNs int64
}

// Member is one rank's handle on the failure-aware runtime: it owns the
// rank's transport, a receiver goroutine that keeps draining it (so
// heartbeats are answered even mid-compute), and a heartbeat goroutine.
//
// Every payload the transport lends has one holder at a time — dataCh,
// pending, the round, lastGood[j] or syncBuf — and goes back to the
// transport when its holder lets go of it. The round lets go at the start
// of the next exchange call, when the result that may reference its
// buffers stops being valid; Close hands back whatever is left.
type Member struct {
	rt   *Runtime
	tr   comm.Transport
	rank int
	p    int

	// dataCh carries kindData/kindSync messages from the receiver to the
	// exchange loop. Buffered generously: the receiver never blocks on it
	// (messages that would block are dropped like a full NIC queue, and
	// nack repair recovers them).
	dataCh chan comm.Message

	// pending stashes data messages for future seqs (a fast peer may send
	// iteration i+1 while we are still collecting i); spare holds the
	// per-seq slices of adopted entries for the next stash to reuse. past
	// is one more than the seq of the last exchange this member completed,
	// lowered to the frontier by a rejoin: data under it is never pended.
	pending map[uint64][][]byte
	spare   [][][]byte
	past    uint64

	// lastGood[j] is the most recent payload received from rank j, for
	// StaleReuse and the bounded-staleness stale folds;
	// lastGoodSeq[j] is the exchange seq it was sent under, which is what
	// turns a cached payload into a measurable staleness.
	lastGood    [][]byte
	lastGoodSeq []uint64

	sentMu sync.Mutex
	sent   []sentSlot

	// syncBuf is the newest sync: a lent payload (syncLent), or syncOwn,
	// the root's copy of what it broadcast.
	syncMu   sync.Mutex
	syncSeq  uint64
	syncBuf  []byte
	syncLent bool
	syncOwn  []byte

	lastSeen []atomic.Int64 // unix nanos of the last message from each peer
	selfDown atomic.Bool    // local transport is failing (crash window)

	viewEpoch uint64 // last view epoch this member acted on

	// The round in progress and the results handed out, reused by every
	// exchange: what one call returns is valid until the next.
	rd  round
	res ExchangeResult
	gsp GossipResult

	// tc is this rank's trace track (nil when tracing is off). The
	// exchange goroutine and the receiver both record on it; the ring's
	// lock-free append makes that safe.
	tc *trace.Ctx

	// arrivalNs[j] is when rank j's fresh payload for the exchange in
	// progress landed, in ns since exStart (0 = not yet / adopted from
	// pending before the exchange began). Reset at every exchange start
	// and filled by absorb; both run on the exchange goroutine, so plain
	// fields are race-safe.
	arrivalNs []int64
	exStart   time.Time

	// wait times out the exchange goroutine's receive loops, collect and
	// the sync wait, one turn at a time.
	wait comm.Timer

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Join attaches rank's transport to the runtime and starts its receiver
// and heartbeat loops. Close must be called when the worker exits.
func (rt *Runtime) Join(tr comm.Transport) *Member {
	rank := tr.RankID()
	m := &Member{
		rt:          rt,
		tr:          tr,
		rank:        rank,
		p:           rt.p,
		dataCh:      make(chan comm.Message, 64*rt.p),
		pending:     make(map[uint64][][]byte),
		sent:        make([]sentSlot, rt.cfg.SendDepth),
		lastGood:    make([][]byte, rt.p),
		lastGoodSeq: make([]uint64, rt.p),
		lastSeen:    make([]atomic.Int64, rt.p),
		arrivalNs:   make([]int64, rt.p),
		rd: round{
			msgs:    make([][]byte, rt.p),
			held:    make([][]byte, rt.p),
			stale:   make([]bool, rt.p),
			staleBy: make([]uint64, rt.p),
		},
		tc:     rt.tracer.Rank(rank),
		closed: make(chan struct{}),
	}
	now := time.Now().UnixNano()
	for j := range m.lastSeen {
		m.lastSeen[j].Store(now)
	}
	m.wg.Add(2)
	go m.receiver()
	go m.heartbeater()
	return m
}

// Close closes the member's transport, stops its goroutines and hands
// every payload it still holds back. No exchange may be in progress or
// follow.
func (m *Member) Close() {
	m.closeOnce.Do(func() {
		close(m.closed)
		m.tr.Close()
		m.wg.Wait()
		for len(m.dataCh) > 0 {
			m.tr.Release((<-m.dataCh).Payload)
		}
		for seq, got := range m.pending {
			m.unpend(seq, got)
		}
		m.release(m.rd.held)
		m.release(m.lastGood)
		m.keepSync(0, nil, false)
	})
}

// release hands bufs' payloads back to the transport and clears them.
func (m *Member) release(bufs [][]byte) {
	for _, b := range bufs {
		m.tr.Release(b)
	}
	clear(bufs)
}

// noteSeen refreshes a peer's liveness timestamp.
func (m *Member) noteSeen(peer int) {
	if peer >= 0 && peer < m.p {
		m.lastSeen[peer].Store(time.Now().UnixNano())
	}
}

// seenWithin reports whether peer sent anything in the last d.
func (m *Member) seenWithin(peer int, d time.Duration) bool {
	return time.Since(time.Unix(0, m.lastSeen[peer].Load())) < d
}

// receiver drains the transport for the member's whole life. Keeping one
// goroutine always in Recv means pings, pongs and nacks are answered
// even while the worker is deep in compute — so RTT gauges are honest
// and a busy rank is never mistaken for a dead one.
func (m *Member) receiver() {
	defer m.wg.Done()
	for {
		select {
		case <-m.closed:
			return
		default:
		}
		msg, err := m.tr.Recv(50 * time.Millisecond)
		if err != nil {
			if errors.Is(err, comm.ErrClosed) {
				return
			}
			if comm.IsRetryable(err) {
				m.selfDown.Store(false)
				continue
			}
			// Terminal transport error (e.g. a chaos crash window): mark
			// ourselves down and keep probing until the window passes.
			m.selfDown.Store(true)
			select {
			case <-m.closed:
				return
			case <-time.After(time.Millisecond):
			}
			continue
		}
		m.selfDown.Store(false)
		m.noteSeen(msg.From)
		switch msg.Kind {
		case kindPing:
			// Echo the sender's timestamp back so it can compute the RTT.
			_ = m.tr.Send(msg.From, comm.Message{Seq: msg.Seq, Kind: kindPong})
		case kindPong:
			if rtt := time.Since(time.Unix(0, int64(msg.Seq))).Seconds(); rtt >= 0 {
				m.rt.observeRTT(msg.From, rtt)
			}
		case kindNack:
			// Sent under the lock, which the transport's copy of the
			// payload makes safe: the slot may be overwritten right after.
			m.sentMu.Lock()
			if slot := &m.sent[msg.Seq%uint64(len(m.sent))]; slot.seq == msg.Seq && slot.payload != nil {
				m.tc.Instant(trace.OpResend, int64(msg.From))
				_ = m.tr.Send(msg.From, comm.Message{Seq: msg.Seq, Kind: kindData, Payload: slot.payload})
			}
			m.sentMu.Unlock()
		case kindSyncNack:
			// Sent under the lock, as above: the root's next broadcast
			// rewrites the buffer in place.
			m.syncMu.Lock()
			if m.syncBuf != nil && m.syncSeq >= msg.Seq {
				_ = m.tr.Send(msg.From, comm.Message{Seq: m.syncSeq, Kind: kindSync, Payload: m.syncBuf})
			}
			m.syncMu.Unlock()
		case kindData, kindSync:
			if v := m.rt.cfg.Verify; v != nil && v(msg.Payload) != nil {
				// Corrupt frame: reject before it can reach a
				// decompressor. Dropping here makes corruption
				// indistinguishable from loss, so the nack/resend (or
				// sync retry) machinery fetches a fresh copy from the
				// sender, whose buffer still holds the good bytes.
				m.rt.noteCorrupt()
				m.tc.Instant(trace.OpCorruptFrame, int64(msg.From))
				break
			}
			select {
			case m.dataCh <- msg:
				continue // the exchange goroutine holds it now
			default:
				// Queue overflow behaves like packet loss; nack repair or
				// the sync retry loop recovers.
			}
		}
		// What is not passed on goes back: a rejected or overflowing
		// frame, and a control frame's payload (nil when well-formed).
		m.tr.Release(msg.Payload)
	}
}

// heartbeater pings every peer each Heartbeat period with the send-time
// nanos as Seq; the echo drives the RTT gauges and liveness clocks. A
// heartbeat carries no payload, so the transport has nothing to copy.
func (m *Member) heartbeater() {
	defer m.wg.Done()
	tick := time.NewTicker(m.rt.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-m.closed:
			return
		case <-tick.C:
		}
		if m.selfDown.Load() {
			continue
		}
		now := uint64(time.Now().UnixNano())
		for j := 0; j < m.p; j++ {
			// Skip self and elastic slots that have not joined yet — an
			// unjoined rank has no receiver, so pings would only pile up in
			// (and overflow) its mailbox.
			if j == m.rank || !m.rt.joinedBits[j].Load() {
				continue
			}
			_ = m.tr.Send(j, comm.Message{Seq: now, Kind: kindPing})
		}
	}
}

// storeSent remembers payload for nack repair. The ring slot is copied:
// the caller may reuse its buffer the moment Exchange returns.
func (m *Member) storeSent(seq uint64, payload []byte) {
	m.sentMu.Lock()
	slot := &m.sent[seq%uint64(len(m.sent))]
	slot.seq = seq
	slot.payload = append(slot.payload[:0], payload...)
	m.sentMu.Unlock()
}

// jitter01 derives the backoff jitter fraction for one (seq, attempt)
// pair from a stateless splitmix64-style hash of (Seed, rank, seq,
// attempt). A stateful RNG here would make each draw depend on how many
// draws earlier exchanges happened to consume — so one extra retry
// anywhere would shift every later jitter value and the retry timeline
// of a chaos run would not be bit-reproducible. The hash has no such
// history: same seed, same (rank, seq, attempt) ⇒ same jitter, always.
func (m *Member) jitter01(seq uint64, attempt int) float64 {
	x := uint64(m.rt.cfg.Seed) ^ (uint64(m.rank)+1)*0x9E3779B97F4A7C15
	x ^= seq*0xBF58476D1CE4E5B9 + uint64(attempt)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// attemptTimeout is the wait budget for one collection attempt. The
// first attempt gets the straggler allowance — stragglerFactor times the
// expected exchange time from the live StageComm EWMA (floored at
// BackoffBase) — and each retry doubles it, capped at BackoffMax, plus
// deterministic jitter so lockstep ranks don't nack in phase.
func (m *Member) attemptTimeout(seq uint64, attempt int, msgBytes int) time.Duration {
	cfg := m.rt.cfg
	base := cfg.BackoffBase
	if rate := m.rt.st.Rate(telemetry.StageComm); rate > 0 && msgBytes > 0 {
		expected := time.Duration(float64(msgBytes) * float64(m.p) / rate * float64(time.Second))
		if d := time.Duration(stragglerFactor * float64(expected)); d > base {
			base = d
		}
	}
	d := base << uint(attempt)
	if d > cfg.BackoffMax || d <= 0 {
		d = cfg.BackoffMax
	}
	jitter := time.Duration(backoffJitter * m.jitter01(seq, attempt) * float64(d))
	return d + jitter
}

// waiting is the policy of one exchange round: whom it gathers from, how
// long it waits for them, and what may stand in for a peer that stays
// absent. The round itself — exchange — is written once.
//
//	         gathers from     first budget         nacks               then, for an absentee
//	strict   every live rank  straggler allowance  MaxRetries rounds   silent: suspicion + Policy; live: OnStraggler
//	bounded  every live rank  one BackoffBase      cache-less peers    silent: suspicion + Policy; live: its cache ≤ window old
//	gossip   ring neighbours  straggler allowance  gossipRetries       its cache ≤ window old, else no weight
//
// Gossip alone never suspects (so never mutates the view) and never
// returns ErrStalled.
type waiting uint8

const (
	strict waiting = iota
	bounded
	gossip
)

// round is one exchange in progress. A member keeps one and reuses it,
// slices included, for every exchange.
type round struct {
	seq    uint64
	pol    waiting
	window uint64
	peers  []int // the ranks this round gathers from
	miss   []int // missing's result, reused
	view   View  // the view it runs under; suspicion moves it on

	msgs    [][]byte
	held    [][]byte // the lent payloads the round holds, by sender
	stale   []bool
	staleBy []uint64 // all 0 under strict, which never measures a cache's age

	startEpoch uint64 // the view epoch this member last acted on
	degraded   bool
	retries    int
}

// Exchange is the failure-aware allgather: every live rank contributes
// payload under sequence number seq and receives everyone's payloads.
// Missing peers are repaired by nack/resend up to MaxRetries rounds;
// peers still absent afterwards are classified as stragglers (fresh
// heartbeat → OnStraggler policy) or dead (suspicion + Policy). The
// returned error is always typed (see the Err* sentinels). The result is
// the member's, valid until its next exchange call.
func (m *Member) Exchange(seq uint64, payload []byte) (*ExchangeResult, error) {
	return m.allgather(seq, payload, strict, 0)
}

// allgather runs a round over every live rank and shapes its result.
func (m *Member) allgather(seq uint64, payload []byte, pol waiting, window uint64) (*ExchangeResult, error) {
	r, err := m.exchange(seq, payload, pol, window)
	if err != nil {
		return nil, err
	}
	res := &m.res
	*res = ExchangeResult{Msgs: r.msgs, Stale: r.stale, StaleBy: r.staleBy}
	for _, b := range r.msgs {
		if b != nil {
			res.Contributors++
		}
	}
	// Measured against the view, not the slot count: an elastic slot that
	// never joined is no absentee.
	res.Degraded = r.degraded || res.Contributors < r.view.AliveCount()
	if res.Degraded {
		m.rt.noteDegraded(m.rank)
	}
	m.attributeWait(res)
	res.View = m.rt.View()
	res.EpochChanged = res.View.Epoch != r.startEpoch
	return res, nil
}

// exchange is the one round: announce seq, fan payload out to the
// policy's peer set, collect, repair by nack, resolve whoever stays
// absent, then refresh the stale cache and account the retries. The
// exported exchanges choose pol and shape the result.
func (m *Member) exchange(seq uint64, payload []byte, pol waiting, window uint64) (*round, error) {
	if m.selfDown.Load() {
		return nil, fmt.Errorf("cluster: rank %d: %w", m.rank, ErrSelfDown)
	}
	view := m.rt.View()
	if !view.Alive[m.rank] {
		return nil, fmt.Errorf("cluster: rank %d: %w", m.rank, ErrEvicted)
	}
	r := &m.rd
	m.release(r.held) // the previous result stops being valid here
	r.seq, r.pol, r.window, r.view, r.startEpoch = seq, pol, window, view, m.viewEpoch
	r.degraded, r.retries = false, 0
	m.viewEpoch = r.view.Epoch
	m.rt.noteExchangeStart(m.rank, seq)
	m.tc.SetIter(seq)
	m.resetArrivals()
	m.storeSent(seq, payload)

	clear(r.msgs)
	clear(r.stale)
	clear(r.staleBy)
	r.msgs[m.rank] = payload
	// Adopt anything a fast peer already sent for this seq.
	if got := m.pending[seq]; got != nil {
		for j, b := range got {
			if b != nil && r.msgs[j] == nil {
				r.msgs[j], r.held[j], got[j] = b, b, nil
			}
		}
		m.unpend(seq, got)
	}
	if pol == gossip {
		r.peers = ringNeighbors(r.peers[:0], m.rank, r.view.Alive)
	} else {
		r.peers = r.peers[:0]
		for j, a := range r.view.Alive {
			if a && j != m.rank {
				r.peers = append(r.peers, j)
			}
		}
	}

	err := m.gather(r, payload)
	if r.retries > 0 {
		m.rt.noteRetry(m.rank, r.retries)
	}
	if err != nil {
		return r, err
	}
	// Refresh the cache that StaleReuse and the stale folds serve from: a
	// fresh payload moves from the round to lastGood.
	for j, b := range r.held {
		if b != nil && !r.stale[j] && seq >= m.lastGoodSeq[j] {
			m.tr.Release(m.lastGood[j])
			m.lastGood[j], m.lastGoodSeq[j], r.held[j] = b, seq, nil
		}
	}
	m.past = seq + 1
	return r, nil
}

// gather fans payload out and waits for the peer set: collect, nack the
// absentees still worth waiting for, repeat. It returns once every
// awaited peer has delivered or been resolved.
func (m *Member) gather(r *round, payload []byte) error {
	cfg := m.rt.cfg
	for _, j := range r.peers {
		var ts time.Time
		if m.tc != nil {
			ts = time.Now()
		}
		err := m.tr.Send(j, comm.Message{Seq: r.seq, Kind: kindData, Payload: payload})
		if m.tc != nil {
			m.tc.SpanSince(trace.OpSendPeer, int64(j), ts)
		}
		if err != nil && !comm.IsRetryable(err) {
			m.selfDown.Store(true)
			return fmt.Errorf("cluster: rank %d send: %w (%v)", m.rank, ErrSelfDown, err)
		}
	}

	deadline := time.Now().Add(cfg.MaxStall)
	for attempt := 0; ; attempt++ {
		budget := m.attemptTimeout(r.seq, attempt, len(payload))
		if r.pol == bounded && attempt == 0 {
			// The grace budget: ordinary in-process skew, no more — a peer
			// slower than that is served from its cache instead.
			budget = cfg.BackoffBase
		}
		if remain := time.Until(deadline); budget > remain {
			budget = remain
		}
		m.collect(r, budget)

		missing := r.missing()
		if len(missing) == 0 {
			return nil
		}
		if m.selfDown.Load() {
			return fmt.Errorf("cluster: rank %d: %w", m.rank, ErrSelfDown)
		}
		if r.pol != gossip && time.Now().After(deadline) {
			return fmt.Errorf("cluster: rank %d exchange %d missing %v after %s: %w",
				m.rank, r.seq, missing, cfg.MaxStall, ErrStalled)
		}
		wait := missing[:0]
		for _, j := range missing {
			again, err := m.absent(r, j, attempt)
			if err != nil {
				return err
			}
			if again {
				wait = append(wait, j)
			}
		}
		if len(wait) == 0 {
			return nil
		}
		// Repair round (the MaxStall deadline still bounds the loop).
		for _, j := range wait {
			m.tc.Instant(trace.OpNack, int64(j))
			_ = m.tr.Send(j, comm.Message{Seq: r.seq, Kind: kindNack})
		}
		r.retries++
	}
}

// absent decides about peer j, still missing after attempt+1 collections:
// true keeps waiting for it (it is nacked), false lets the round complete
// with whatever now stands in its slot.
func (m *Member) absent(r *round, j, attempt int) (bool, error) {
	cfg := m.rt.cfg
	switch r.pol {
	case strict:
		if attempt < cfg.MaxRetries {
			return true, nil
		}
		if !m.seenWithin(j, cfg.SuspectAfter) {
			return false, m.suspectDead(r, j)
		}
		// Alive but late — a straggler: keep waiting (BSP), or run this
		// round without it; no view change either way.
		if cfg.OnStraggler == StragglerWait {
			return true, nil
		}
	case bounded:
		if !m.seenWithin(j, cfg.SuspectAfter) {
			// Dead, not slow. Suspicion must run so the view — and with it
			// the staleness frontier minimum — stops including the corpse.
			return false, m.suspectDead(r, j)
		}
		if m.lastGood[j] == nil && attempt < cfg.MaxRetries {
			return true, nil // no cache yet: warm-up, worth a nack
		}
		// A cache beyond the window means the peer lags more than the
		// discount can justify: excluded from this round, never waited on
		// (its own training continues; periodic syncs keep it anchored).
		m.foldCache(r, j)
	case gossip:
		if attempt < gossipRetries {
			return true, nil
		}
		// Repair budget spent: a recent cache, or self-weight absorbs it.
		m.foldCache(r, j)
		return false, nil
	}
	r.degraded = true
	return false, nil
}

// foldCache fills absent peer j's slot with its freshest cached payload
// when that is at most r.window seqs old, tagged with its age.
func (m *Member) foldCache(r *round, j int) {
	if m.lastGood[j] == nil || r.seq < m.lastGoodSeq[j] || r.seq-m.lastGoodSeq[j] > r.window {
		return
	}
	d := r.seq - m.lastGoodSeq[j]
	r.msgs[j], r.stale[j], r.staleBy[j] = m.lastGood[j], true, d
	m.rt.noteStaleReuse()
	m.rt.noteStaleness(d)
	m.tc.Instant(trace.OpStaleFold, int64(j))
}

// missing lists the awaited peers, still in the view, whose slot is empty.
func (r *round) missing() []int {
	r.miss = r.miss[:0]
	for _, j := range r.peers {
		if r.msgs[j] == nil && r.view.Alive[j] {
			r.miss = append(r.miss, j)
		}
	}
	return r.miss
}

// resetArrivals opens a new blame window: fresh-arrival times are
// measured from the moment this rank entered the exchange.
func (m *Member) resetArrivals() {
	m.exStart = time.Now()
	clear(m.arrivalNs)
}

// noteArrival marks peer j's fresh payload as landed now (first landing
// wins; resends of the same payload do not move the needle).
func (m *Member) noteArrival(j int) {
	if j < 0 || j >= len(m.arrivalNs) || m.arrivalNs[j] != 0 {
		return
	}
	ns := int64(time.Since(m.exStart))
	if ns <= 0 {
		ns = 1 // coarse clock: still distinguish "arrived" from "never"
	}
	m.arrivalNs[j] = ns
}

// attributeWait fills res.SlowestPeer and res.WaitNs from the blame
// window: the fresh contributor that arrived last, and its arrival
// minus the next-latest fresh arrival — the wait it alone caused.
// Stale fills and payloads adopted from pending are excluded: nobody
// waited for those inside this exchange.
func (m *Member) attributeWait(res *ExchangeResult) {
	res.SlowestPeer = -1
	var slow, second int64
	for j := range res.Msgs {
		if j == m.rank || j >= len(m.arrivalNs) || res.Msgs[j] == nil {
			continue
		}
		if len(res.Stale) > j && res.Stale[j] {
			continue
		}
		ns := m.arrivalNs[j]
		if ns == 0 {
			continue
		}
		if ns > slow {
			second = slow
			slow, res.SlowestPeer = ns, j
		} else if ns > second {
			second = ns
		}
	}
	if res.SlowestPeer >= 0 {
		res.WaitNs = slow - second
	}
}

// collect drains dataCh into the round until every awaited peer has
// delivered or the budget expires. Messages for other seqs are stashed in
// pending (future) or banked as the sender's freshest payload (past).
func (m *Member) collect(r *round, budget time.Duration) {
	expired := m.wait.Arm(budget)
	for len(r.missing()) > 0 {
		select {
		case msg := <-m.dataCh:
			m.absorb(r, msg)
		case <-m.closed:
			return
		case <-expired:
			return
		}
	}
}

// absorb files one data/sync message relative to the round in progress,
// handing back what it has no place for (a duplicate, say).
func (m *Member) absorb(r *round, msg comm.Message) {
	from, b := msg.From, msg.Payload
	switch {
	case msg.Kind == kindSync || msg.Seq > r.seq:
		// A sync that raced into the data stream, or a fast peer already
		// one round on.
		m.stash(msg)
	case from < 0 || from >= m.p || from == m.rank:
		m.tr.Release(b)
	case msg.Seq == r.seq && r.msgs[from] == nil:
		r.msgs[from], r.held[from] = b, b
		m.noteArrival(from)
		m.tc.Instant(trace.OpRecvPeer, int64(from))
	case msg.Seq < r.seq:
		m.bank(r, msg)
	default: // a duplicate for a filled slot
		m.tr.Release(b)
	}
}

// bank files data from a past exchange: too late for that round, but
// still its sender's freshest payload when it is newer than the cached
// one — banked so a bounded-staleness fold can use it with a measured
// staleness. (A straggler's data always arrives under old seqs; this is
// the only way its gradient ever contributes again.) Anything older is
// handed back. A cache that r, the round in progress or the last one,
// folded stays the round's until the next exchange call.
func (m *Member) bank(r *round, msg comm.Message) {
	from, b := msg.From, msg.Payload
	if from < 0 || from >= m.p || from == m.rank || msg.Seq <= m.lastGoodSeq[from] {
		m.tr.Release(b)
		return
	}
	if r.stale[from] && r.held[from] == nil {
		r.held[from] = m.lastGood[from]
	} else {
		m.tr.Release(m.lastGood[from])
	}
	m.lastGood[from], m.lastGoodSeq[from] = b, msg.Seq
}

// suspectDead runs suspicion for a heartbeat-silent rank and applies the
// dead-rank Policy to the round. Suspicion goes first — the quorum guard
// turns an unrecoverable partition into a fast typed error no matter
// which degradation policy is configured.
func (m *Member) suspectDead(r *round, j int) error {
	nv, err := m.rt.suspect(j, m.rank)
	if err != nil {
		if errors.Is(err, ErrEvicted) {
			return fmt.Errorf("cluster: rank %d: %w", m.rank, ErrEvicted)
		}
		return err // ErrNoQuorum
	}
	m.tc.Instant(trace.OpSuspect, int64(j))
	if nv.Epoch != r.view.Epoch {
		m.tc.Instant(trace.OpViewChange, int64(nv.Epoch))
	}
	r.view = nv
	r.degraded = true
	switch m.rt.cfg.Policy {
	case FailFast:
		return fmt.Errorf("cluster: rank %d saw rank %d fail at exchange %d: %w",
			m.rank, j, r.seq, ErrPeerFailed)
	case StaleReuse:
		if m.lastGood[j] != nil {
			r.msgs[j] = m.lastGood[j]
			r.stale[j] = true
			m.rt.noteStaleReuse()
		}
	}
	return nil
}

// SyncBroadcast distributes the root's parameter snapshot under sync
// sequence seq. The root stores the payload (for syncNack repair) and
// sends to every live peer; non-roots wait for it, nacking on timeout.
// It returns the received payload — the member's buffer, valid until its
// next SyncBroadcast or exchange call — and ok=false when the sync had to
// be abandoned (counted; the next SyncEvery boundary repairs the drift).
func (m *Member) SyncBroadcast(seq uint64, payload []byte, root int) ([]byte, bool, error) {
	if m.selfDown.Load() {
		return nil, false, fmt.Errorf("cluster: rank %d: %w", m.rank, ErrSelfDown)
	}
	view := m.rt.View()
	if !view.Alive[m.rank] {
		return nil, false, fmt.Errorf("cluster: rank %d: %w", m.rank, ErrEvicted)
	}
	if m.rank == root {
		m.syncMu.Lock()
		m.syncOwn = append(m.syncOwn[:0], payload...)
		m.keepSync(seq, m.syncOwn, false)
		buf := m.syncBuf
		m.syncMu.Unlock()
		for j := 0; j < m.p; j++ {
			if j == root || !view.Alive[j] {
				continue
			}
			_ = m.tr.Send(j, comm.Message{Seq: seq, Kind: kindSync, Payload: buf})
		}
		return payload, true, nil
	}

	// Maybe the receiver already stashed it.
	if got, ok := m.takeSync(seq); ok {
		return got, true, nil
	}
	deadline := time.Now().Add(m.rt.cfg.MaxStall)
	for attempt := 0; attempt <= m.rt.cfg.MaxRetries; attempt++ {
		budget := m.attemptTimeout(seq, attempt, len(m.syncBuf))
		if remain := time.Until(deadline); budget > remain {
			budget = remain
		}
		for expired, waiting := m.wait.Arm(budget), true; waiting; {
			select {
			case msg := <-m.dataCh:
				m.stash(msg)
				if got, ok := m.takeSync(seq); ok {
					return got, true, nil
				}
			case <-m.closed:
				return nil, false, fmt.Errorf("cluster: rank %d: %w", m.rank, comm.ErrClosed)
			case <-expired:
				waiting = false
			}
		}
		if m.selfDown.Load() {
			return nil, false, fmt.Errorf("cluster: rank %d: %w", m.rank, ErrSelfDown)
		}
		_ = m.tr.Send(root, comm.Message{Seq: seq, Kind: kindSyncNack})
	}
	// Root is gone or unreachable: skip this sync and let the next one
	// (under the new view's root) repair the drift.
	m.rt.noteSkippedSync()
	m.tc.Instant(trace.OpSkippedSync, int64(root))
	return nil, false, nil
}

// takeSync returns the stored sync payload when it covers seq. It is the
// member's buffer, not a copy: only this goroutine replaces or rewrites
// it, in a later SyncBroadcast or exchange.
func (m *Member) takeSync(seq uint64) ([]byte, bool) {
	m.syncMu.Lock()
	defer m.syncMu.Unlock()
	if m.syncBuf != nil && m.syncSeq >= seq {
		return m.syncBuf, true
	}
	return nil, false
}

// stash files a message outside the round in progress: syncs to the sync
// buffer, data for a seq this member has yet to complete to pending for
// that Exchange to adopt, and data for a completed one as bank does (a
// late resend or a duplicate can land while the member waits for a sync;
// no exchange would ever adopt it).
func (m *Member) stash(msg comm.Message) {
	if msg.Kind == kindSync {
		m.syncMu.Lock()
		if msg.Seq >= m.syncSeq {
			m.keepSync(msg.Seq, msg.Payload, true)
		} else {
			m.tr.Release(msg.Payload)
		}
		m.syncMu.Unlock()
		return
	}
	if msg.Seq < m.past {
		m.bank(&m.rd, msg)
		return
	}
	got := m.pending[msg.Seq]
	if got == nil {
		if k := len(m.spare); k > 0 {
			got, m.spare = m.spare[k-1], m.spare[:k-1]
		} else {
			got = make([][]byte, m.p)
		}
		m.pending[msg.Seq] = got
	}
	if msg.From >= 0 && msg.From < m.p && got[msg.From] == nil {
		got[msg.From] = msg.Payload
	} else {
		m.tr.Release(msg.Payload)
	}
}

// keepSync makes b the stored sync for seq, handing back the lent payload
// it replaces. The caller holds syncMu.
func (m *Member) keepSync(seq uint64, b []byte, lent bool) {
	if m.syncLent {
		m.tr.Release(m.syncBuf)
	}
	m.syncSeq, m.syncBuf, m.syncLent = seq, b, lent
}

// unpend removes seq's pending entry got, hands back the payloads left in
// it and keeps its slice for reuse.
func (m *Member) unpend(seq uint64, got [][]byte) {
	delete(m.pending, seq)
	m.release(got)
	m.spare = append(m.spare, got)
}

// AwaitRejoin parks until the local transport heals (selfDown clears),
// then re-enters the view. It returns the view joined, the exchange
// frontier to resume at, and the checkpoint to restore (nil when the
// rank was never evicted or none is published).
func (m *Member) AwaitRejoin() (View, uint64, *checkpoint.State, error) {
	deadline := time.Now().Add(m.rt.cfg.RejoinWait)
	for m.selfDown.Load() {
		if time.Now().After(deadline) {
			return View{}, 0, nil, fmt.Errorf("cluster: rank %d transport did not heal within %s: %w",
				m.rank, m.rt.cfg.RejoinWait, ErrRejoinTimeout)
		}
		select {
		case <-m.closed:
			return View{}, 0, nil, fmt.Errorf("cluster: rank %d: %w", m.rank, comm.ErrClosed)
		case <-m.rt.cfg.Halt:
			return View{}, 0, nil, fmt.Errorf("cluster: rank %d: %w", m.rank, ErrHalted)
		case <-time.After(time.Millisecond):
		}
	}
	// Probe the transport directly: selfDown only clears when the
	// receiver loop gets a non-terminal result, which it will shortly;
	// the loop above plus this rejoin gives a consistent re-entry.
	view, frontier, st, err := m.rt.rejoin(m.rank)
	if err != nil {
		return View{}, 0, nil, err
	}
	m.tc.Instant(trace.OpRejoin, int64(view.Epoch))
	m.viewEpoch = view.Epoch
	// Drop stale per-exchange state from before the crash. The rank runs
	// the frontier's exchange again even if it had completed it, so data
	// for it is pended from here on.
	for k, got := range m.pending {
		if k < frontier {
			m.unpend(k, got)
		}
	}
	m.past = min(m.past, frontier)
	return view, frontier, st, nil
}
