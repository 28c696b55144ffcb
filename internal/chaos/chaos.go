// Package chaos is a deterministic, seeded fault-injecting wrapper
// around any comm.Transport: message drop, delay, duplication, rank
// crash windows, and network partitions — the in-process test harness
// for every failure policy of internal/cluster.
//
// Determinism: whether the N-th send of rank r is dropped, delayed or
// duplicated is a pure function of (seed, r, N) via a splitmix64 hash —
// no shared RNG state, no lock, no dependence on goroutine interleaving.
// Crash windows are indexed by a rank's own operation counter and
// partitions by a global operation counter, so fault schedules track
// workload progress rather than wall-clock speed and reproduce across
// machines. (Wall-clock *interleavings* still vary; protocols are
// expected to be insensitive to them, which is exactly what the chaos
// property tests assert.)
package chaos

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"fftgrad/internal/comm"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// ErrCrashed is returned by a chaos endpoint whose rank is inside a
// crash window. The cluster runtime treats it as "this process is down":
// the member parks in its rejoin loop until the transport heals.
var ErrCrashed = errors.New("chaos: rank crashed")

// CrashEvent schedules one rank crash. The rank is down from its AtOp-th
// transport operation (sends + receives, counted per rank) for
// RecoverAfterOps further operations; RecoverAfterOps == 0 means it
// never recovers. While down, sends vanish, receives fail with
// ErrCrashed, and inbound traffic is dropped by the peer-side filter.
type CrashEvent struct {
	Rank            int
	AtOp            uint64
	RecoverAfterOps uint64
}

// StragglerEvent makes one rank persistently slow (not dead): every
// send it performs from its FromOp-th transport operation onward is
// delivered only after SlowBy — the permanent-straggler model that
// distinguishes the bounded-staleness mode (the fleet keeps its
// iteration rate) from strict BSP (every round waits out SlowBy). Ops
// bounds the window; 0 means the rank never speeds up again. Heartbeats
// are delayed too, but as long as SlowBy stays below the suspicion
// deadline the rank is classified straggler, never dead.
type StragglerEvent struct {
	Rank   int
	FromOp uint64
	Ops    uint64 // 0 = permanent
	SlowBy time.Duration
}

// Partition isolates Ranks from everyone else between global operation
// FromOp and FromOp+Ops (Ops == 0 means forever). Messages crossing the
// boundary are silently dropped in both directions.
type Partition struct {
	Ranks  []int
	FromOp uint64
	Ops    uint64 // 0 = unrecoverable
}

// Config is one chaos schedule.
type Config struct {
	Seed int64
	// Drop is the per-message loss probability.
	Drop float64
	// DelayProb is the probability a message is delayed; Delay is the
	// maximum injected delay (per-message uniform in (0, Delay]).
	DelayProb float64
	Delay     time.Duration
	// Dup is the per-message duplication probability.
	Dup float64
	// Corrupt is the per-message probability of a single bit flip at a
	// deterministic position in the payload — the silent-corruption model
	// exercised by the internal/guard CRC framing. A single flipped bit is
	// always caught by CRC32C, so with framing enabled every corruption
	// must surface as a rejected frame, never as a garbage gradient.
	Corrupt float64

	Crashes    []CrashEvent
	Stragglers []StragglerEvent
	Partition  *Partition
}

// Stats counts injected faults across all endpoints of one Harness.
type Stats struct {
	Drops        uint64
	Delays       uint64
	Dups         uint64
	Corruptions  uint64
	CrashedOps   uint64
	Partitioned  uint64
	StraggledOps uint64
}

// Harness owns the shared schedule state for one cluster's worth of
// chaos endpoints.
type Harness struct {
	cfg      Config
	globalOp atomic.Uint64
	inPart   []bool // rank -> member of the partitioned side
	tracer   *trace.Tracer

	drops, delays, dups, corruptions, crashedOps, partitioned, straggledOps atomic.Uint64
}

// AttachTracer marks injected incidents — crash-window entry/exit and
// payload bit flips — on the affected rank's trace track, so a chaos
// postmortem shows cause (injection) and effect (nacks, corrupt-frame
// drops, rejoins) on one timeline. Call before Wrap.
func (h *Harness) AttachTracer(tr *trace.Tracer) { h.tracer = tr }

// NewHarness builds the shared fault scheduler for p ranks.
func NewHarness(p int, cfg Config) *Harness {
	h := &Harness{cfg: cfg, inPart: make([]bool, p)}
	if cfg.Partition != nil {
		for _, r := range cfg.Partition.Ranks {
			if r >= 0 && r < p {
				h.inPart[r] = true
			}
		}
	}
	return h
}

// Stats returns the cumulative injected-fault counts.
func (h *Harness) Stats() Stats {
	return Stats{
		Drops:        h.drops.Load(),
		Delays:       h.delays.Load(),
		Dups:         h.dups.Load(),
		Corruptions:  h.corruptions.Load(),
		CrashedOps:   h.crashedOps.Load(),
		Partitioned:  h.partitioned.Load(),
		StraggledOps: h.straggledOps.Load(),
	}
}

// Instrument exposes the injected-fault counters on reg.
func (h *Harness) Instrument(reg *telemetry.Registry) {
	reg.GaugeFunc("fftgrad_chaos_drops_total", "chaos-injected message drops",
		func() float64 { return float64(h.drops.Load()) })
	reg.GaugeFunc("fftgrad_chaos_delays_total", "chaos-injected message delays",
		func() float64 { return float64(h.delays.Load()) })
	reg.GaugeFunc("fftgrad_chaos_dups_total", "chaos-injected message duplications",
		func() float64 { return float64(h.dups.Load()) })
	reg.GaugeFunc("fftgrad_chaos_corruptions_total", "chaos-injected single-bit payload flips",
		func() float64 { return float64(h.corruptions.Load()) })
	reg.GaugeFunc("fftgrad_chaos_crashed_ops_total", "transport ops refused inside crash windows",
		func() float64 { return float64(h.crashedOps.Load()) })
	reg.GaugeFunc("fftgrad_chaos_partitioned_total", "messages dropped at a partition boundary",
		func() float64 { return float64(h.partitioned.Load()) })
	reg.GaugeFunc("fftgrad_chaos_straggled_ops_total", "sends slowed by a straggler window",
		func() float64 { return float64(h.straggledOps.Load()) })
}

// Wrap returns tr with this harness's fault schedule applied.
func (h *Harness) Wrap(tr comm.Transport) *Transport {
	return &Transport{h: h, inner: tr, rank: tr.RankID(), tc: h.tracer.Rank(tr.RankID())}
}

// Transport is one rank's fault-injected view of an inner transport.
type Transport struct {
	h       *Harness
	inner   comm.Transport
	rank    int
	ops     atomic.Uint64 // this rank's operation counter
	tc      *trace.Ctx
	wasDown atomic.Bool // last observed crash-window state, for edge events
}

// noteCrashEdge records crash-window transitions (entry and exit) as
// instant events, once per edge rather than once per refused op.
func (t *Transport) noteCrashEdge(op uint64, down bool) {
	if t.tc == nil {
		return
	}
	if t.wasDown.CompareAndSwap(!down, down) {
		if down {
			t.tc.Instant(trace.OpCrash, int64(op))
		} else {
			t.tc.Instant(trace.OpRecover, int64(op))
		}
	}
}

// RankID implements comm.Transport.
func (t *Transport) RankID() int { return t.inner.RankID() }

// P implements comm.Transport.
func (t *Transport) P() int { return t.inner.P() }

// Close implements comm.Transport.
func (t *Transport) Close() error { return t.inner.Close() }

// Release implements comm.Transport: every payload Recv lends is the
// inner transport's.
func (t *Transport) Release(payload []byte) { t.inner.Release(payload) }

func (t *Transport) crashedAt(op uint64) bool {
	for _, c := range t.h.cfg.Crashes {
		if c.Rank != t.rank {
			continue
		}
		if op >= c.AtOp && (c.RecoverAfterOps == 0 || op < c.AtOp+c.RecoverAfterOps) {
			return true
		}
	}
	return false
}

// stragglingBy returns how much rank's op-th send is slowed by an
// active straggler window (0 when the rank is at full speed).
func (t *Transport) stragglingBy(op uint64) time.Duration {
	for _, s := range t.h.cfg.Stragglers {
		if s.Rank != t.rank {
			continue
		}
		if op >= s.FromOp && (s.Ops == 0 || op < s.FromOp+s.Ops) {
			return s.SlowBy
		}
	}
	return 0
}

// partitioned reports whether src->dst crosses an active partition
// boundary at global op g.
func (h *Harness) partitionedAt(g uint64, src, dst int) bool {
	p := h.cfg.Partition
	if p == nil || g < p.FromOp {
		return false
	}
	if p.Ops != 0 && g >= p.FromOp+p.Ops {
		return false
	}
	return h.inPart[src] != h.inPart[dst]
}

// splitmix64 is the stateless per-message hash (same construction the
// stochastic quantizer uses for its counter-derived streams).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// roll returns a uniform [0,1) deterministic in (seed, rank, op, salt).
func (t *Transport) roll(op uint64, salt uint64) float64 {
	x := splitmix64(uint64(t.h.cfg.Seed) ^ uint64(t.rank)*0xA24BAED4963EE407 ^ op*0x9FB21C651E98DF25 ^ salt)
	return float64(x>>11) / float64(1<<53)
}

// Send implements comm.Transport with the fault schedule applied.
func (t *Transport) Send(to int, m comm.Message) error {
	op := t.ops.Add(1) - 1
	g := t.h.globalOp.Add(1) - 1
	if t.crashedAt(op) {
		t.h.crashedOps.Add(1)
		t.noteCrashEdge(op, true)
		return &comm.OpError{Op: "send", Rank: t.rank, Peer: to, Err: ErrCrashed}
	}
	t.noteCrashEdge(op, false)
	if t.h.partitionedAt(g, t.rank, to) {
		t.h.partitioned.Add(1)
		return nil // crosses the partition: silently lost
	}
	if t.h.cfg.Drop > 0 && t.roll(op, 0x01) < t.h.cfg.Drop {
		t.h.drops.Add(1)
		return nil // lost on the wire
	}
	if t.h.cfg.Corrupt > 0 && len(m.Payload) > 0 && t.roll(op, 0x05) < t.h.cfg.Corrupt {
		t.h.corruptions.Add(1)
		// Flip one deterministic bit. The payload is copied first: the
		// sender's buffer must stay pristine — the wire corrupted the
		// frame, not the process that produced it (the nack/resend path
		// relies on the sender still holding the good bytes).
		bit := splitmix64(uint64(t.h.cfg.Seed)^uint64(t.rank)*0xA24BAED4963EE407^op*0x9FB21C651E98DF25^0x06) % uint64(len(m.Payload)*8)
		m.Payload = append([]byte(nil), m.Payload...)
		m.Payload[bit/8] ^= 1 << (bit % 8)
		t.tc.Instant(trace.OpChaosCorrupt, int64(to))
	}
	dup := t.h.cfg.Dup > 0 && t.roll(op, 0x02) < t.h.cfg.Dup
	// A straggler window adds a fixed per-send delay on top of any
	// randomly scheduled one — the rank is slow, not lossy.
	slow := t.stragglingBy(op)
	if slow > 0 {
		t.h.straggledOps.Add(1)
	}
	delayed := t.h.cfg.DelayProb > 0 && t.h.cfg.Delay > 0 && t.roll(op, 0x03) < t.h.cfg.DelayProb
	if delayed || slow > 0 {
		if delayed {
			t.h.delays.Add(1)
		}
		// Deterministic per-message delay magnitude; delivery happens off
		// the sender's goroutine so a slow link never stalls the sender.
		// The payload is copied NOW: once Send returns, the sender may
		// reuse its buffer, and a late delivery must carry the bytes as
		// they were at send time, not whatever the buffer holds later.
		d := slow
		if delayed {
			d += time.Duration(t.roll(op, 0x04) * float64(t.h.cfg.Delay))
		}
		inner, msg := t.inner, m
		msg.Payload = append([]byte(nil), m.Payload...)
		go func() {
			time.Sleep(d)
			_ = inner.Send(to, msg)
			if dup {
				_ = inner.Send(to, msg)
			}
		}()
		if dup {
			t.h.dups.Add(1)
		}
		return nil
	}
	if err := t.inner.Send(to, m); err != nil {
		return err
	}
	if dup {
		t.h.dups.Add(1)
		return t.inner.Send(to, m)
	}
	return nil
}

// Recv implements comm.Transport. Inside a crash window it refuses with
// ErrCrashed and discards anything queued (a rebooted process has no
// memory of frames that arrived while it was down), handing each
// discarded payload back to the inner transport.
func (t *Transport) Recv(timeout time.Duration) (comm.Message, error) {
	op := t.ops.Add(1) - 1
	if t.crashedAt(op) {
		t.h.crashedOps.Add(1)
		t.noteCrashEdge(op, true)
		// Drain without delivering, then report the crash.
		for {
			msg, err := t.inner.Recv(0)
			if err != nil {
				break
			}
			t.inner.Release(msg.Payload)
		}
		return comm.Message{}, &comm.OpError{Op: "recv", Rank: t.rank, Peer: -1, Err: ErrCrashed}
	}
	t.noteCrashEdge(op, false)
	return t.inner.Recv(timeout)
}

// String describes the schedule (for logs and run summaries).
func (c Config) String() string {
	s := fmt.Sprintf("chaos{seed=%d drop=%.2g delay=%.2g@%s dup=%.2g corrupt=%.2g", c.Seed, c.Drop, c.DelayProb, c.Delay, c.Dup, c.Corrupt)
	for _, cr := range c.Crashes {
		s += fmt.Sprintf(" crash[r%d@%d+%d]", cr.Rank, cr.AtOp, cr.RecoverAfterOps)
	}
	for _, st := range c.Stragglers {
		s += fmt.Sprintf(" straggle[r%d@%d+%d by %s]", st.Rank, st.FromOp, st.Ops, st.SlowBy)
	}
	if c.Partition != nil {
		s += fmt.Sprintf(" part[%v@%d+%d]", c.Partition.Ranks, c.Partition.FromOp, c.Partition.Ops)
	}
	return s + "}"
}
