// Package obs is the cross-rank iteration profiler: it turns the
// per-rank stage measurements the training loops already take (the
// paper's Sec. 3.3 terms — compute, Tm/Tf/Ts/Tp inside compress, the
// exchange, decompress, update, sync) into *cross-rank* attribution:
//
//   - a clock-aligned global timeline. On the TCP/netsim paths each rank
//     records against its own monotonic epoch; the profiler estimates
//     per-rank clock offsets from the barrier-anchored exchange-end
//     instants (all ranks leave a BSP allgather at nearly the same wall
//     moment) and hands them to trace.WriteMergedJSON for a single
//     multi-process Perfetto view.
//
//   - a per-iteration critical path: which rank set the pace, how its
//     wall time decomposes into stage terms plus comm-wait, and a
//     straggler "blame ledger" attributing each rank's blocked time to
//     the rank that caused it, with rolling per-rank blame percentiles
//     fed into telemetry histograms.
//
//   - a rolling anomaly engine: EWMA z-scores over iteration latency and
//     per-stage shares; a breach auto-captures a pprof CPU profile
//     alongside the flight-recorder dump, cross-linked by iteration.
//
// Design constraints match the rest of the observability stack: a nil
// *Profiler / *RankCtx is valid and records nothing, and the
// steady-state record path (RankCtx.Commit) performs zero allocations —
// seqlock stores, EWMA float math, histogram atomics and a non-blocking
// channel send, nothing else. All analysis (offset estimation, critical
// paths, the ledger, JSON export) is cold-path and runs on demand.
package obs

import (
	"cmp"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// IterRecord is one rank's accounting of one training iteration. All
// *Ns stage durations come from the training loop's existing timers;
// StartNs/ExchEndNs/EndNs are instants on the rank's profiler clock
// (RankCtx.NowNs), which is what makes cross-rank alignment possible.
type IterRecord struct {
	Iter int64 `json:"iter"`

	StartNs   int64 `json:"start_ns"`    // iteration began (rank-local clock)
	ExchEndNs int64 `json:"exch_end_ns"` // gradient exchange completed (barrier-anchored)
	EndNs     int64 `json:"end_ns"`      // iteration ended

	ComputeNs    int64 `json:"compute_ns"`
	CompressNs   int64 `json:"compress_ns"`
	ExchangeNs   int64 `json:"exchange_ns"`
	DecompressNs int64 `json:"decompress_ns"`
	UpdateNs     int64 `json:"update_ns"`
	SyncNs       int64 `json:"sync_ns"`

	MsgBytes int64 `json:"msg_bytes"`

	// BlamePeer/BlameWaitNs carry the cluster layer's in-exchange
	// attribution on the fault path (ExchangeResult.SlowestPeer/WaitNs):
	// the peer whose data this rank waited for longest, and the marginal
	// wait it caused. -1/0 on the barrier path, where arrival skew is
	// reconstructed from the records instead (see critical.go).
	BlamePeer   int64 `json:"blame_peer"`
	BlameWaitNs int64 `json:"blame_wait_ns"`
}

// recordWords is an IterRecord's width in its rank's trace.SeqRing: the
// thirteen fields in declaration order.
const recordWords = 13

func (r *IterRecord) words() [recordWords]uint64 {
	return [recordWords]uint64{
		uint64(r.Iter), uint64(r.StartNs), uint64(r.ExchEndNs), uint64(r.EndNs),
		uint64(r.ComputeNs), uint64(r.CompressNs), uint64(r.ExchangeNs),
		uint64(r.DecompressNs), uint64(r.UpdateNs), uint64(r.SyncNs),
		uint64(r.MsgBytes), uint64(r.BlamePeer), uint64(r.BlameWaitNs),
	}
}

func recordOf(w []uint64) IterRecord {
	return IterRecord{
		Iter: int64(w[0]), StartNs: int64(w[1]), ExchEndNs: int64(w[2]), EndNs: int64(w[3]),
		ComputeNs: int64(w[4]), CompressNs: int64(w[5]), ExchangeNs: int64(w[6]),
		DecompressNs: int64(w[7]), UpdateNs: int64(w[8]), SyncNs: int64(w[9]),
		MsgBytes: int64(w[10]), BlamePeer: int64(w[11]), BlameWaitNs: int64(w[12]),
	}
}

// DefaultIterWindow is the per-rank record capacity New selects when
// asked for <= 0: enough iterations for offset estimation and the
// rolling ledger without unbounded memory.
const DefaultIterWindow = 4096

// Profiler owns one record ring per rank plus the analysis state. The
// zero value is not usable; a nil *Profiler is valid and records nothing.
type Profiler struct {
	rings []*trace.SeqRing // one per rank; only that rank's worker writes it
	base  time.Time        // the one monotonic epoch every rank's clock shares

	// Anomaly engine state, one cell per rank, each touched only by its
	// own rank's Commit goroutine.
	anom []anomalyState

	// Telemetry, wired by Instrument before training starts (or left nil).
	iterHist  *telemetry.Histogram   // fftgrad_obs_iteration_seconds
	blameHist []*telemetry.Histogram // fftgrad_obs_blame_seconds{rank=...}

	// Capture plumbing (EnableCapture); captureCh is non-nil only when a
	// capture worker is running.
	captureCh chan anomalyEvent
	capt      *capturer
	breaches  atomic.Uint64 // z-score breaches detected (captured or not)

	// Cold-path analysis state: the cursor-guarded ledger sweep.
	mu     sync.Mutex
	ledger ledger
}

// New creates a profiler for `ranks` tracks retaining the last perIter
// iteration records per rank (rounded up to a power of two; <= 0 selects
// DefaultIterWindow). All ranks share one monotonic epoch — the
// in-process case.
func New(ranks, perIter int) *Profiler {
	if ranks < 1 {
		ranks = 1
	}
	if perIter <= 0 {
		perIter = DefaultIterWindow
	}
	p := &Profiler{
		rings: make([]*trace.SeqRing, ranks),
		base:  time.Now(),
		anom:  make([]anomalyState, ranks),
	}
	for i := range p.rings {
		p.rings[i] = trace.NewSeqRing(perIter, recordWords)
	}
	return p
}

// Rank returns the recording handle for one rank's track, nil when the
// profiler is nil or the rank is out of range — callers thread the nil
// through and every record call degrades to a pointer check.
func (p *Profiler) Rank(rank int) *RankCtx {
	if p == nil || rank < 0 || rank >= len(p.rings) {
		return nil
	}
	return &RankCtx{p: p, rank: int32(rank)}
}

// RankCtx is one rank's recording handle. A nil *RankCtx is valid; every
// method is a no-op (NowNs returns 0).
type RankCtx struct {
	p    *Profiler
	rank int32
}

// NowNs returns the current time on the profiler clock.
func (c *RankCtx) NowNs() int64 {
	if c == nil {
		return 0
	}
	return int64(time.Since(c.p.base))
}

// Commit records one completed iteration. This is the steady-state
// record path: seqlock stores, one histogram observation, the EWMA
// anomaly update and (on breach) a non-blocking channel send — zero
// allocations, asserted by TestCommitZeroAlloc and the obs gate.
func (c *RankCtx) Commit(rec IterRecord) {
	if c == nil {
		return
	}
	p := c.p
	w := rec.words()
	p.rings[c.rank].Put(w[:])
	latency := float64(rec.EndNs-rec.StartNs) / 1e9
	if p.iterHist != nil {
		p.iterHist.Observe(latency)
	}
	p.anomalyCheck(int(c.rank), &rec, latency)
}

// Records snapshots one rank's retained iteration records, ordered by
// iteration. Cold path; safe against a concurrently committing writer.
func (p *Profiler) Records(rank int) []IterRecord {
	if p == nil || rank < 0 || rank >= len(p.rings) {
		return nil
	}
	r := p.rings[rank]
	out := make([]IterRecord, 0, r.Cap())
	r.Each(func(w []uint64) { out = append(out, recordOf(w)) })
	slices.SortStableFunc(out, func(a, b IterRecord) int { return cmp.Compare(a.Iter, b.Iter) })
	return out
}

// blameBounds are the bucket bounds (seconds) for the per-rank blame
// histograms: sub-ms in-process skew up to multi-second stalls.
var blameBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// iterBounds are the bucket bounds (seconds) for iteration latency.
var iterBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5,
}

// Instrument wires the profiler's histograms and gauges into reg:
//
//	fftgrad_obs_iteration_seconds            — iteration latency histogram
//	fftgrad_obs_blame_seconds{rank="N"}      — blocked time attributed to rank N
//	fftgrad_obs_anomaly_breaches_total       — EWMA z-score breaches
//
// Call before training starts; Commit publishes to these without locks.
func (p *Profiler) Instrument(reg *telemetry.Registry) {
	if p == nil || reg == nil {
		return
	}
	p.iterHist = reg.Histogram("fftgrad_obs_iteration_seconds",
		"Per-rank training iteration latency.", iterBounds)
	p.blameHist = make([]*telemetry.Histogram, len(p.rings))
	for rank := range p.rings {
		p.blameHist[rank] = reg.Histogram(
			histName(rank),
			"Blocked time across the fleet attributed to this rank (per blamed iteration).",
			blameBounds)
	}
	reg.GaugeFunc("fftgrad_obs_anomaly_breaches_total",
		"EWMA z-score breaches detected by the profiler's anomaly engine.",
		func() float64 { return float64(p.breaches.Load()) })
}

func histName(rank int) string {
	return `fftgrad_obs_blame_seconds{rank="` + strconv.Itoa(rank) + `"}`
}
