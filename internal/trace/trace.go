// Package trace is the timeline layer of the observability stack: a
// low-overhead span/event recorder with one fixed-size lock-free ring
// buffer per rank, exported as Chrome trace_event JSON (one track per
// rank, loadable in Perfetto or chrome://tracing).
//
// Where internal/telemetry answers "how fast is each stage on average"
// (scalar EWMAs feeding the Sec. 3.3 model), this package answers
// "where inside *this* iteration did the time go, and how do the ranks
// skew against each other" — the per-stage, per-rank overlap view that
// production diagnoses of compression schemes are made from. The same
// buffer doubles as a crash flight recorder: because the ring always
// holds the most recent events, dumping it at the moment a guard
// rollback, quorum loss, crash window or panic fires yields a replayable
// timeline of the last N iterations before the incident (see flight.go).
//
// Design constraints:
//
//   - Nil-safe everywhere. A nil *Tracer / *Ctx turns every record call
//     into a pointer check, so disabled runs pay no allocation and no
//     atomics on the data path.
//   - Lock-free append. Recording claims a slot with one atomic add and
//     publishes with per-word atomic stores plus a seqlock stamp
//     (SeqRing); concurrent writers (the worker loop, the cluster
//     receiver, the heartbeater) never block each other and never tear
//     an exported event.
//   - Bounded memory. The per-rank ring is sized once at New; steady
//     state recording allocates nothing (asserted by TestAppendZeroAlloc
//     and the compress/cluster gates), and old events are overwritten,
//     never accumulated.
package trace

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"fftgrad/internal/telemetry"
)

// Op identifies what a span or instant covers — the event taxonomy.
// Spans cover the iteration pipeline; instants mark cluster, guard,
// adapt and chaos incidents.
type Op uint8

const (
	OpNone Op = iota

	// Pipeline spans (ph "X" in the trace_event export).
	OpIteration  // one full training iteration (parent of the rest)
	OpCompute    // forward + backward + gradient flatten
	OpScrub      // pre-compress NaN/Inf scrub
	OpConvert    // Tm: precision conversion / (de)quantization
	OpTransform  // Tf: forward or inverse FFT/DCT
	OpSelect     // Ts: top-k / threshold selection
	OpPack       // Tp: sparse gather/scatter + wire (de)serialization
	OpCompress   // whole encode (frame included under guard)
	OpDecompress // whole decode + averaging (unpack included)
	OpExchange   // the gradient exchange collective
	OpBarrier    // in-process collective arrival wait (rank skew)
	OpSendPeer   // one peer send on the cluster path (arg = peer)
	OpUpdate     // anomaly check + SGD parameter update
	OpSync       // parameter re-broadcast

	// Exchange / cluster instants (ph "i").
	OpRecvPeer    // data payload arrived from a peer (arg = peer)
	OpNack        // repair request sent to a missing peer (arg = peer)
	OpResend      // nack answered from the sent ring (arg = requester)
	OpSuspect     // peer declared dead after heartbeat silence (arg = peer)
	OpViewChange  // membership epoch bumped (arg = new epoch)
	OpRejoin      // this rank re-admitted to the view (arg = epoch)
	OpCrash       // transport entered a crash window (arg = op index)
	OpRecover     // transport left a crash window (arg = op index)
	OpSkippedSync // parameter re-broadcast abandoned

	// Guard instants.
	OpCorruptFrame // inbound frame rejected pre-decompress (arg = sender)
	OpScrubbed     // non-finite values scrubbed (arg = count)
	OpClip         // anomaly ladder: gradient clipped
	OpSkipUpdate   // anomaly ladder: update skipped
	OpRollback     // anomaly ladder: parameters rolled back
	OpDriftResync  // cross-rank fingerprint mismatch forced a re-sync

	// Adapt / chaos / flight instants.
	OpBypass        // adapt controller shipped raw FP32 this iteration
	OpChaosCorrupt  // chaos flipped a payload bit (arg = destination)
	OpFlightTrigger // flight-recorder dump fired (arg = Reason)

	// Collective strategy spans (internal/collective).
	OpBucket        // one gradient bucket's compress→exchange→decompress (arg = bucket)
	OpGroupGather   // hierarchical: leader assembles its group's frames (arg = bytes)
	OpGroupExchange // hierarchical: inter-group leader exchange (arg = bytes)
	OpGroupBcast    // hierarchical: leader's full set read by its group (arg = bytes)
	OpTreeGather    // tree: binomial gather toward the root (arg = bytes)
	OpTreeBcast     // tree: binomial broadcast from the root (arg = bytes)

	// Elasticity / asynchrony instants.
	OpStaleFold // stale cached gradient damped into a round (arg = peer)
	OpGossip    // one completed gossip round (arg = contributing peers)
	OpJoin      // brand-new rank admitted to the view mid-run (arg = epoch)

	numOps
)

// opNames are the trace_event "name" strings, indexed by Op.
var opNames = [numOps]string{
	OpNone:          "none",
	OpIteration:     "iteration",
	OpCompute:       "compute",
	OpScrub:         "scrub",
	OpConvert:       "convert",
	OpTransform:     "transform",
	OpSelect:        "select",
	OpPack:          "pack",
	OpCompress:      "compress",
	OpDecompress:    "decompress",
	OpExchange:      "exchange",
	OpBarrier:       "barrier",
	OpSendPeer:      "send",
	OpUpdate:        "update",
	OpSync:          "sync",
	OpRecvPeer:      "recv",
	OpNack:          "nack",
	OpResend:        "resend",
	OpSuspect:       "suspect",
	OpViewChange:    "view_change",
	OpRejoin:        "rejoin",
	OpCrash:         "crash",
	OpRecover:       "recover",
	OpSkippedSync:   "skipped_sync",
	OpCorruptFrame:  "corrupt_frame",
	OpScrubbed:      "scrubbed",
	OpClip:          "clip",
	OpSkipUpdate:    "skip_update",
	OpRollback:      "rollback",
	OpDriftResync:   "drift_resync",
	OpBypass:        "bypass",
	OpChaosCorrupt:  "chaos_corrupt",
	OpFlightTrigger: "flight_trigger",
	OpBucket:        "bucket",
	OpGroupGather:   "group_gather",
	OpGroupExchange: "group_exchange",
	OpGroupBcast:    "group_bcast",
	OpTreeGather:    "tree_gather",
	OpTreeBcast:     "tree_bcast",
	OpStaleFold:     "stale_fold",
	OpGossip:        "gossip",
	OpJoin:          "join",
}

// opCats are the trace_event "cat" strings, indexed by Op.
var opCats = [numOps]string{
	OpNone:          "none",
	OpIteration:     "pipeline",
	OpCompute:       "pipeline",
	OpScrub:         "pipeline",
	OpConvert:       "pipeline",
	OpTransform:     "pipeline",
	OpSelect:        "pipeline",
	OpPack:          "pipeline",
	OpCompress:      "pipeline",
	OpDecompress:    "pipeline",
	OpExchange:      "exchange",
	OpBarrier:       "exchange",
	OpSendPeer:      "exchange",
	OpUpdate:        "pipeline",
	OpSync:          "exchange",
	OpRecvPeer:      "exchange",
	OpNack:          "exchange",
	OpResend:        "exchange",
	OpSuspect:       "cluster",
	OpViewChange:    "cluster",
	OpRejoin:        "cluster",
	OpCrash:         "cluster",
	OpRecover:       "cluster",
	OpSkippedSync:   "cluster",
	OpCorruptFrame:  "guard",
	OpScrubbed:      "guard",
	OpClip:          "guard",
	OpSkipUpdate:    "guard",
	OpRollback:      "guard",
	OpDriftResync:   "guard",
	OpBypass:        "adapt",
	OpChaosCorrupt:  "chaos",
	OpFlightTrigger: "flight",
	OpBucket:        "exchange",
	OpGroupGather:   "exchange",
	OpGroupExchange: "exchange",
	OpGroupBcast:    "exchange",
	OpTreeGather:    "exchange",
	OpTreeBcast:     "exchange",
	OpStaleFold:     "cluster",
	OpGossip:        "cluster",
	OpJoin:          "cluster",
}

// String returns the trace_event name of the op.
func (o Op) String() string {
	if o < numOps {
		return opNames[o]
	}
	return "unknown"
}

// Cat returns the trace_event category of the op.
func (o Op) Cat() string {
	if o < numOps {
		return opCats[o]
	}
	return "unknown"
}

// Event is one recorded span (Dur > 0) or instant marker (Dur == 0).
// Times are nanoseconds since the tracer's epoch.
type Event struct {
	Start int64  // ns since tracer start
	Dur   int64  // ns; 0 for instants
	Seq   uint64 // iteration id the event belongs to
	Arg   int64  // op-specific argument (bytes, peer rank, epoch, count)
	Rank  int32
	Op    Op
}

// ring is one rank's event buffer: a SeqRing of eventWords-word records.
type ring struct{ *SeqRing }

// eventWords is an Event's record width: start, dur, seq, arg, op (the
// rank is the ring's index).
const eventWords = 5

func (r *ring) append(op Op, seq uint64, arg, start, dur int64) {
	r.Put([]uint64{uint64(start), uint64(dur), seq, uint64(arg), uint64(op)})
}

// DefaultEventsPerIteration is a sizing hint: one iteration records on
// the order of a dozen pipeline spans per rank plus per-peer exchange
// markers and the occasional cluster/guard instant. Multiplying an
// iteration window by this constant gives New a per-rank capacity that
// comfortably retains the window.
const DefaultEventsPerIteration = 64

// Tracer owns one ring per rank. The zero value is not usable; a nil
// *Tracer is valid and records nothing.
type Tracer struct {
	rings    []ring
	nowNanos func() int64 // ns since epoch; swapped out by tests
	name     string       // Perfetto process_name; "" = default
}

// SetName overrides the process name the Chrome-trace export emits,
// so a job service exporting one timeline per job gets per-job process
// rows ("job j-42 (bsp)") instead of every job claiming "fftgrad
// trainer". Call before recording; it is not synchronized with WriteJSON.
func (t *Tracer) SetName(name string) {
	if t != nil {
		t.name = name
	}
}

// Name returns the export process name ("" when defaulted).
func (t *Tracer) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// New creates a tracer for ranks tracks retaining the last perRank
// events per rank (rounded up to a power of two; <= 0 selects 8192).
func New(ranks, perRank int) *Tracer {
	if ranks < 1 {
		ranks = 1
	}
	if perRank <= 0 {
		perRank = 8192
	}
	t := &Tracer{rings: make([]ring, ranks)}
	for i := range t.rings {
		t.rings[i].SeqRing = NewSeqRing(perRank, eventWords)
	}
	base := time.Now()
	t.nowNanos = func() int64 { return int64(time.Since(base)) }
	return t
}

// Ranks returns the number of tracks, 0 on a nil tracer.
func (t *Tracer) Ranks() int {
	if t == nil {
		return 0
	}
	return len(t.rings)
}

// Rank returns the recording handle for one rank's track, nil when the
// tracer is nil or the rank is out of range — callers thread the nil
// through and every record call degrades to a pointer check.
func (t *Tracer) Rank(rank int) *Ctx {
	if t == nil || rank < 0 || rank >= len(t.rings) {
		return nil
	}
	return &Ctx{t: t, rank: int32(rank)}
}

// Events snapshots every consistently-published event across all rings,
// ordered by start time (ties broken by rank, then op, then seq) — the
// form the exporter consumes. Safe to call while writers keep appending;
// events half-overwritten during the scan are skipped, not torn.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.rings)*t.rings[0].Cap())
	for rank := range t.rings {
		t.rings[rank].Each(func(w []uint64) {
			out = append(out, Event{
				Start: int64(w[0]),
				Dur:   int64(w[1]),
				Seq:   w[2],
				Arg:   int64(w[3]),
				Rank:  int32(rank),
				Op:    Op(w[4]),
			})
		})
	}
	sortEvents(out)
	return out
}

// Dropped returns how many events rank's ring has lost to wraparound:
// total appends beyond the ring's capacity. The ring is *designed* to
// overwrite (it is a flight recorder, not a log), but a merged timeline
// stitched from all ranks needs to know when a rank's window no longer
// reaches back to the iterations the other ranks still retain — those
// iterations are incomplete and any cross-rank attribution over them is
// suspect. Returns 0 on a nil tracer or out-of-range rank.
func (t *Tracer) Dropped(rank int) uint64 {
	if t == nil || rank < 0 || rank >= len(t.rings) {
		return 0
	}
	r := t.rings[rank]
	if pos, kept := r.pos.Load(), uint64(r.Cap()); pos > kept {
		return pos - kept
	}
	return 0
}

// DroppedTotal sums wraparound loss across every rank's ring.
func (t *Tracer) DroppedTotal() uint64 {
	var total uint64
	for rank := 0; rank < t.Ranks(); rank++ {
		total += t.Dropped(rank)
	}
	return total
}

// Instrument exposes per-rank wraparound loss on reg as
// fftgrad_trace_dropped_total{rank="N"} — read-on-exposition gauges, so
// the record path pays nothing for the accounting (the ring's claim
// counter already carries it).
func (t *Tracer) Instrument(reg *telemetry.Registry) {
	if t == nil || reg == nil {
		return
	}
	for rank := 0; rank < t.Ranks(); rank++ {
		rank := rank
		reg.GaugeFunc(fmt.Sprintf(`fftgrad_trace_dropped_total{rank="%d"}`, rank),
			"Trace events lost to ring wraparound on this rank's track.",
			func() float64 { return float64(t.Dropped(rank)) })
	}
}

// sortEvents orders events deterministically for export: by start time,
// then rank, then op, then seq, then duration.
func sortEvents(ev []Event) {
	sort.Slice(ev, func(i, j int) bool {
		a, b := ev[i], ev[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Dur < b.Dur
	})
}

// Ctx is one rank's recording handle: it remembers the rank's track and
// the current iteration id so hot-path record calls carry no context
// arguments. A nil *Ctx is valid; every method is a no-op.
type Ctx struct {
	t    *Tracer
	rank int32
	seq  atomic.Uint64
}

// SetIter tags subsequent events with iteration id seq. Called once at
// the top of each training iteration; concurrent recorders (the cluster
// receiver) pick the new id up atomically.
func (c *Ctx) SetIter(seq uint64) {
	if c == nil {
		return
	}
	c.seq.Store(seq)
}

// Instant records a zero-duration marker at the current time.
func (c *Ctx) Instant(op Op, arg int64) {
	if c == nil {
		return
	}
	c.t.rings[c.rank].append(op, c.seq.Load(), arg, c.t.nowNanos(), 0)
}

// SpanSince records a span that started at start and ends now.
func (c *Ctx) SpanSince(op Op, arg int64, start time.Time) {
	if c == nil {
		return
	}
	dur := int64(time.Since(start))
	if dur < 0 {
		dur = 0
	}
	end := c.t.nowNanos()
	c.t.rings[c.rank].append(op, c.seq.Load(), arg, end-dur, dur)
}

// SpanTimed records a span with an explicit start and duration (the
// StageSink path, where the stage timer already measured both).
func (c *Ctx) SpanTimed(op Op, arg int64, start time.Time, dur time.Duration) {
	if c == nil {
		return
	}
	d := int64(dur)
	if d < 0 {
		d = 0
	}
	// Anchor the wall-clock start onto the tracer's monotonic axis: the
	// span started time.Since(start) before "now" on that axis.
	startNs := c.t.nowNanos() - int64(time.Since(start))
	c.t.rings[c.rank].append(op, c.seq.Load(), arg, startNs, d)
}

// stageSink adapts a Ctx to telemetry.StageSink: compressor-internal
// stage measurements (the Tm/Tf/Tp/Ts hooks already embedded in every
// instrumented compressor) become trace spans on the rank's track, so
// the FFT/select/quantize/pack breakdown appears inside the compress
// span without touching any compressor.
type stageSink struct{ c *Ctx }

// StageSpan implements telemetry.StageSink.
func (s stageSink) StageSpan(st telemetry.Stage, bytes int, start time.Time, dur time.Duration) {
	var op Op
	switch st {
	case telemetry.StageConvert:
		op = OpConvert
	case telemetry.StageTransform:
		op = OpTransform
	case telemetry.StageSelect:
		op = OpSelect
	case telemetry.StagePack:
		op = OpPack
	default:
		return // StageComm spans are recorded by the exchange loop itself
	}
	s.c.SpanTimed(op, int64(bytes), start, dur)
}

// StageSink returns a telemetry.StageSink recording compressor stage
// spans onto this rank's track, nil for a nil Ctx (so the caller's
// StageTimer.WithSink(nil) keeps the un-teed timer).
func (c *Ctx) StageSink() telemetry.StageSink {
	if c == nil {
		return nil
	}
	return stageSink{c}
}
