// Package cluster is the failure-aware runtime between the transport
// layer (internal/comm, optionally fault-injected by internal/chaos) and
// the BSP training loop (internal/dist).
//
// The paper's Background credits the parameter-server scheme with fault
// tolerance but evaluates BSP allreduce, where one dead or slow rank
// stalls the whole job; this package gives the BSP exchange the missing
// liveness story. It provides:
//
//   - a lightweight membership protocol: per-rank heartbeats with RTT
//     measurement, deadline-based suspicion, and epoch-numbered views
//     guarded by a majority quorum (a view change that would leave ≤ p/2
//     survivors is refused with a typed error — an unrecoverable
//     partition fails fast instead of split-braining);
//   - a failure-aware gradient exchange: an allgather over the current
//     view with bounded retry (exponential backoff + deterministic
//     jitter), nack-based retransmission, straggler detection driven by
//     the live telemetry EWMAs, and pluggable degradation policies —
//     drop-and-rescale over survivors, reuse of the absent rank's last
//     gradient (the Sec. 3.4 bounded-error argument covers a one-round
//     stale contribution the same way it covers sparsification error),
//     or fail-fast;
//   - checkpoint-based rejoin: a recovered rank re-enters the current
//     view mid-run, restores the latest published checkpoint, and the
//     view-epoch bump tells survivors to force a parameter
//     re-broadcast, bounding the divergence window.
//
// All hot-path accounting is atomic; the exchange allocates only on the
// fault path, so the compression pipeline's zero-allocation gate holds
// with the runtime attached.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fftgrad/internal/checkpoint"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// Typed failure classes. Workers classify with errors.Is.
var (
	// ErrSelfDown: the local transport is down (crashed / closed). The
	// worker should park in AwaitRejoin. Recoverable.
	ErrSelfDown = errors.New("cluster: local transport down")
	// ErrEvicted: this rank is not in the current view (it was suspected
	// while absent, or exhausted maxRejoins). Recoverable via AwaitRejoin
	// until maxRejoins, terminal afterwards.
	ErrEvicted = errors.New("cluster: rank evicted from view")
	// ErrNoQuorum: completing the requested view change would leave ≤ p/2
	// survivors. Terminal — the symptom of an unrecoverable partition.
	ErrNoQuorum = errors.New("cluster: view change would lose quorum")
	// ErrPeerFailed: a peer was suspected and the FailFast policy is in
	// effect. Terminal for the run.
	ErrPeerFailed = errors.New("cluster: peer failed")
	// ErrStalled: one exchange exceeded MaxStall wall time. Terminal —
	// the deadlock guard of last resort.
	ErrStalled = errors.New("cluster: exchange stalled past deadline")
	// ErrRejoinTimeout: the transport did not heal within RejoinWait.
	// Terminal.
	ErrRejoinTimeout = errors.New("cluster: rejoin timed out")
	// ErrHalted: the run's Config.Halt fired while this rank was parked
	// waiting to rejoin — the service is draining or the job was
	// canceled, so the park is abandoned instead of waiting out
	// RejoinWait. Terminal for the rank, expected for the run.
	ErrHalted = errors.New("cluster: halted while awaiting rejoin")
)

// IsRecoverable reports whether the worker should attempt AwaitRejoin
// instead of aborting the run.
func IsRecoverable(err error) bool {
	return errors.Is(err, ErrSelfDown) || errors.Is(err, ErrEvicted)
}

// Policy selects what the exchange does about a suspected (dead) rank.
type Policy uint8

const (
	// FailFast aborts the run with ErrPeerFailed.
	FailFast Policy = iota
	// DropRescale completes the allreduce over survivors and rescales the
	// average by the surviving contributor count.
	DropRescale
	// StaleReuse substitutes the absent rank's last successfully received
	// gradient for one round (falling back to DropRescale when none is
	// cached), keeping the update's expectation closer to the full-view
	// average at the cost of a bounded-staleness error.
	StaleReuse
)

// ParsePolicy parses "failfast" | "rescale" | "stale".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "failfast":
		return FailFast, nil
	case "rescale":
		return DropRescale, nil
	case "stale":
		return StaleReuse, nil
	}
	return 0, fmt.Errorf("cluster: unknown policy %q (want failfast|rescale|stale)", s)
}

// StragglerPolicy selects what the exchange does about a peer that is
// provably alive (fresh heartbeat) but has not delivered its message
// after the retry budget.
type StragglerPolicy uint8

const (
	// StragglerWait keeps waiting (BSP semantics) until the peer delivers,
	// goes heartbeat-stale (suspicion takes over) or MaxStall expires.
	StragglerWait StragglerPolicy = iota
	// StragglerDrop excludes the straggler from this round only — no view
	// change, it is expected back next iteration.
	StragglerDrop
)

// ParseStragglerPolicy parses "wait" | "drop". Folding a straggler's
// older gradient into the round is bounded staleness (-staleness K,
// dist.FaultConfig.Staleness), not a straggler policy.
func ParseStragglerPolicy(s string) (StragglerPolicy, error) {
	switch s {
	case "wait":
		return StragglerWait, nil
	case "drop":
		return StragglerDrop, nil
	}
	return 0, fmt.Errorf("cluster: unknown straggler policy %q (want wait|drop; to reuse a straggler's older gradient set -staleness K)", s)
}

// Config tunes the runtime. Zero values take the documented defaults.
type Config struct {
	// Heartbeat is the ping period (default 2ms — in-process scale; a
	// multi-machine deployment would use hundreds of ms).
	Heartbeat time.Duration
	// SuspectAfter is the liveness deadline: a peer silent for this long
	// is suspectable (default 50×Heartbeat).
	SuspectAfter time.Duration
	// MaxRetries bounds nack/resend rounds per exchange (default 5).
	MaxRetries int
	// BackoffBase/BackoffMax bound the per-attempt timeout, which doubles
	// each retry (defaults 3ms / 100ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Policy handles suspected (dead) peers; OnStraggler handles alive-
	// but-late peers (defaults FailFast / StragglerWait).
	Policy      Policy
	OnStraggler StragglerPolicy
	// MaxStall is the hard wall-clock bound on one exchange — the
	// deadlock guard (default 10s).
	MaxStall time.Duration
	// SendDepth is how many recent exchange payloads each member keeps
	// for nack repair (default 4). It must cover the maximum sequence
	// drift between live ranks: one iteration at the default seq-per-
	// iteration, but a bucketed exchange burns `buckets` seqs per
	// iteration, so its caller raises the depth to 2×buckets+2 — a fast
	// rank parked at the iteration-end sync must still be able to serve
	// a resend of its oldest bucket of the previous iteration.
	SendDepth int
	// RejoinWait bounds how long AwaitRejoin waits for the local
	// transport to heal (default 2s).
	RejoinWait time.Duration
	// Seed feeds the deterministic backoff jitter (backoffJitter).
	Seed int64
	// Halt, when non-nil, is the run's cooperative-stop signal: a rank
	// parked in AwaitRejoin abandons the park with ErrHalted the moment
	// the channel closes, so canceling or draining a job never waits out
	// RejoinWait on a crashed rank.
	Halt <-chan struct{}
	// Verify, when non-nil, is the wire integrity check (internal/guard's
	// frame verifier) applied to every inbound data and sync payload
	// before it is surfaced to the exchange. A failing payload is counted
	// and dropped in the receiver — a corrupt frame is treated exactly
	// like a lost one, so the existing nack/resend (or sync retry) path
	// repairs it with a fresh copy and garbage bytes never reach the
	// decompressor.
	Verify func(payload []byte) error
}

// The runtime's fixed tuning.
const (
	// backoffJitter is the multiplicative jitter fraction on each backoff
	// step, drawn deterministically from Config.Seed.
	backoffJitter = 0.5
	// stragglerFactor scales the expected exchange time (from the live
	// StageComm EWMA, when a StageTimer is attached) into the first wait
	// budget.
	stragglerFactor = 4
	// maxRejoins bounds how many times one rank may re-enter the view;
	// afterwards eviction is permanent, which makes partition flip-flop
	// livelocks terminate in bounded time.
	maxRejoins = 3
)

func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 2 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 50 * c.Heartbeat
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 5
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 3 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 100 * time.Millisecond
	}
	if c.MaxStall <= 0 {
		c.MaxStall = 10 * time.Second
	}
	if c.SendDepth <= 0 {
		c.SendDepth = 4
	}
	if c.RejoinWait <= 0 {
		c.RejoinWait = 2 * time.Second
	}
	return c
}

// View is one epoch-numbered membership snapshot. Alive is shared with
// the runtime and every other holder of the same view, so it is read-only:
// the runtime copies it before each change, and a View once handed out
// never changes.
type View struct {
	Epoch uint64
	Alive []bool
}

// AliveCount returns the number of live ranks.
func (v View) AliveCount() int {
	n := 0
	for _, a := range v.Alive {
		if a {
			n++
		}
	}
	return n
}

// LowestAlive returns the smallest live rank (the broadcast root), or -1.
func (v View) LowestAlive() int {
	for j, a := range v.Alive {
		if a {
			return j
		}
	}
	return -1
}

// Stats is the runtime's cumulative fault accounting.
type Stats struct {
	Retries            uint64 // nack/resend rounds across all exchanges
	Suspicions         uint64 // peers declared dead
	DegradedIterations uint64 // exchanges completed without the full view
	StaleReuses        uint64 // rounds served from a cached peer gradient
	Rejoins            uint64 // ranks re-admitted to the view
	SkippedSyncs       uint64 // parameter re-broadcasts abandoned
	ViewChanges        uint64 // epoch bumps (suspicions + rejoins + joins)
	CorruptFrames      uint64 // inbound payloads rejected by Verify
	ElasticJoins       uint64 // brand-new ranks admitted mid-run
	GossipRounds       uint64 // completed gossip exchanges
	StalenessMax       uint64 // largest staleness (seqs) folded into a round
	FinalAlive         int    // live ranks at snapshot time
}

// Runtime is the shared membership and accounting state for one cluster.
// In-process it is literally shared memory; a multi-machine deployment
// would back the same interface with a membership service.
type Runtime struct {
	p   int
	cfg Config

	mu          sync.Mutex
	epoch       uint64
	alive       []bool // copy-on-write: View hands it out (setAlive)
	joined      []bool // ever admitted; elastic slots start false
	rejoinCount []int
	frontier    uint64   // highest exchange seq any member has started
	perRank     []uint64 // per-rank exchange frontier (staleness tracking)
	ckpt        *checkpoint.State
	ckptSeq     uint64

	// joinedBits mirrors joined for lock-free reads on the heartbeat path.
	joinedBits []atomic.Bool

	retries       atomic.Uint64
	suspicions    atomic.Uint64
	degraded      atomic.Uint64
	staleReuses   atomic.Uint64
	rejoins       atomic.Uint64
	skippedSyncs  atomic.Uint64
	viewChanges   atomic.Uint64
	corruptFrames atomic.Uint64
	elasticJoins  atomic.Uint64
	gossipRounds  atomic.Uint64
	staleCur      atomic.Uint64
	staleMax      atomic.Uint64

	// Optional telemetry mirrors (nil-safe when uninstrumented).
	cRetries    *telemetry.Counter
	cSuspicions *telemetry.Counter
	cDegraded   *telemetry.Counter
	rtt         []*telemetry.Gauge
	st          *telemetry.StageTimer
	tracer      *trace.Tracer
}

// New creates a runtime for p ranks, all initially alive.
func New(p int, cfg Config) *Runtime {
	return NewElastic(p, p, cfg)
}

// NewElastic creates a runtime sized for pmax ranks of which only the
// first p are initially admitted; ranks p..pmax-1 are elastic slots that
// may enter mid-run via AdmitJoin. A never-admitted slot is neither alive
// nor joined: it is invisible to views, quorum math, and the staleness
// frontier until its join handshake completes.
func NewElastic(p, pmax int, cfg Config) *Runtime {
	if p < 1 {
		panic("cluster: need at least one rank")
	}
	if pmax < p {
		panic("cluster: pmax below initial rank count")
	}
	rt := &Runtime{
		p:           pmax,
		cfg:         cfg.withDefaults(),
		alive:       make([]bool, pmax),
		joined:      make([]bool, pmax),
		joinedBits:  make([]atomic.Bool, pmax),
		rejoinCount: make([]int, pmax),
		perRank:     make([]uint64, pmax),
		rtt:         make([]*telemetry.Gauge, pmax),
	}
	for i := 0; i < p; i++ {
		rt.alive[i] = true
		rt.joined[i] = true
		rt.joinedBits[i].Store(true)
	}
	return rt
}

// Instrument registers the cluster metrics on reg: retry / suspicion /
// degraded-iteration counters, per-rank heartbeat RTT gauges, and
// exposition-time gauges for the remaining accounting. Hot-path updates
// stay pure atomics.
func (rt *Runtime) Instrument(reg *telemetry.Registry) {
	rt.cRetries = reg.Counter("fftgrad_cluster_retries_total",
		"Exchange retry (nack/resend) rounds across all ranks.")
	rt.cSuspicions = reg.Counter("fftgrad_cluster_suspicions_total",
		"Peers declared dead after heartbeat silence.")
	rt.cDegraded = reg.Counter("fftgrad_cluster_degraded_iterations_total",
		"Exchanges completed without the full membership view.")
	for j := 0; j < rt.p; j++ {
		rt.rtt[j] = reg.Gauge(fmt.Sprintf(`fftgrad_cluster_heartbeat_rtt_seconds{rank="%d"}`, j),
			"Last measured heartbeat round-trip time to this rank.")
	}
	reg.GaugeFunc("fftgrad_cluster_view_epoch", "current membership view epoch",
		func() float64 { rt.mu.Lock(); defer rt.mu.Unlock(); return float64(rt.epoch) })
	reg.GaugeFunc("fftgrad_cluster_alive_ranks", "ranks alive in the current view",
		func() float64 { return float64(rt.View().AliveCount()) })
	reg.GaugeFunc("fftgrad_cluster_stale_reuses_total", "rounds served from a cached peer gradient",
		func() float64 { return float64(rt.staleReuses.Load()) })
	reg.GaugeFunc("fftgrad_cluster_rejoins_total", "ranks re-admitted to the view",
		func() float64 { return float64(rt.rejoins.Load()) })
	reg.GaugeFunc("fftgrad_cluster_skipped_syncs_total", "parameter re-broadcasts abandoned",
		func() float64 { return float64(rt.skippedSyncs.Load()) })
	reg.GaugeFunc("fftgrad_staleness_current", "staleness (exchange seqs) of the most recent damped stale fold",
		func() float64 { return float64(rt.staleCur.Load()) })
	reg.GaugeFunc("fftgrad_staleness_max", "largest staleness (exchange seqs) folded into any round",
		func() float64 { return float64(rt.staleMax.Load()) })
	reg.GaugeFunc("fftgrad_elastic_joins_total", "brand-new ranks admitted to the view mid-run",
		func() float64 { return float64(rt.elasticJoins.Load()) })
	reg.GaugeFunc("fftgrad_gossip_rounds_total", "completed ring-neighbor gossip exchanges",
		func() float64 { return float64(rt.gossipRounds.Load()) })
	if rt.cfg.Verify != nil {
		reg.GaugeFunc("fftgrad_guard_corrupt_frames", "inbound frames rejected by the integrity check before decompression",
			func() float64 { return float64(rt.corruptFrames.Load()) })
	}
}

// AttachStageTimer lets the exchange derive its straggler wait budget
// from the live StageComm throughput EWMA.
func (rt *Runtime) AttachStageTimer(st *telemetry.StageTimer) { rt.st = st }

// AttachTracer records per-member exchange sub-spans and cluster
// incident instants (nacks, resends, suspicions, view changes, rejoins,
// corrupt-frame drops) on tr's per-rank tracks. Call before Join; a nil
// tracer keeps tracing off with zero hot-path cost.
func (rt *Runtime) AttachTracer(tr *trace.Tracer) { rt.tracer = tr }

// View returns the current membership view.
func (rt *Runtime) View() View {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.view()
}

// view is View with rt.mu held.
func (rt *Runtime) view() View { return View{Epoch: rt.epoch, Alive: rt.alive} }

// setAlive changes rank's liveness in a fresh copy of the alive slice,
// since the current one may be in a View already handed out, and bumps
// the epoch. rt.mu must be held.
func (rt *Runtime) setAlive(rank int, a bool) {
	rt.alive = slices.Clone(rt.alive)
	rt.alive[rank] = a
	rt.epoch++
	rt.viewChanges.Add(1)
}

// Stats snapshots the fault accounting.
func (rt *Runtime) Stats() Stats {
	return Stats{
		Retries:            rt.retries.Load(),
		Suspicions:         rt.suspicions.Load(),
		DegradedIterations: rt.degraded.Load(),
		StaleReuses:        rt.staleReuses.Load(),
		Rejoins:            rt.rejoins.Load(),
		SkippedSyncs:       rt.skippedSyncs.Load(),
		ViewChanges:        rt.viewChanges.Load(),
		CorruptFrames:      rt.corruptFrames.Load(),
		ElasticJoins:       rt.elasticJoins.Load(),
		GossipRounds:       rt.gossipRounds.Load(),
		StalenessMax:       rt.staleMax.Load(),
		FinalAlive:         rt.View().AliveCount(),
	}
}

// PublishCheckpoint stores the latest training snapshot for rejoiners.
// The lowest alive rank publishes at every epoch boundary. The runtime
// keeps st and returns the state it replaces (nil at the first publish),
// or st itself when seq is older than the stored snapshot's: the caller
// owns what comes back and may capture its next checkpoint into it.
// Rejoiners and joiners get copies, so a publish never changes a state
// one of them is applying.
func (rt *Runtime) PublishCheckpoint(st *checkpoint.State, seq uint64) *checkpoint.State {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if st == nil || seq < rt.ckptSeq {
		return st
	}
	old := rt.ckpt
	rt.ckpt, rt.ckptSeq = st, seq
	return old
}

// noteExchangeStart advances rank's exchange frontier and the global one
// (the seq a rejoiner or elastic joiner enters at).
func (rt *Runtime) noteExchangeStart(rank int, seq uint64) {
	rt.mu.Lock()
	if seq > rt.perRank[rank] {
		rt.perRank[rank] = seq
	}
	if seq > rt.frontier {
		rt.frontier = seq
	}
	rt.mu.Unlock()
}

// Frontier returns the highest exchange seq any member has started.
func (rt *Runtime) Frontier() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.frontier
}

// MinLiveFrontier returns the lowest exchange frontier across admitted,
// live ranks — the progress of the slowest rank the bounded-staleness
// throttle must respect. Evicted and never-joined ranks are excluded, so
// a dead rank stops gating progress the moment suspicion completes.
func (rt *Runtime) MinLiveFrontier() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	min, any := uint64(0), false
	for r := 0; r < rt.p; r++ {
		if !rt.joined[r] || !rt.alive[r] {
			continue
		}
		if !any || rt.perRank[r] < min {
			min, any = rt.perRank[r], true
		}
	}
	return min
}

// WaitWithinWindow blocks rank before it starts exchange seq until the
// slowest live rank is within `window` seqs behind — the bounded-
// staleness throttle. It returns waited=true when it actually blocked.
//
// The wait is bounded by SuspectAfter: if the frontier is pinned by a
// rank that has died but not yet been suspected, every other rank is
// parked here and no exchange is running to perform the suspicion — so
// after the liveness deadline the caller proceeds anyway and lets its
// exchange classify the absentee, after which the dead rank leaves the
// frontier minimum. The staleness bound is therefore soft for at most
// one suspicion interval around a crash.
func (rt *Runtime) WaitWithinWindow(rank int, seq, window uint64) (bool, error) {
	if window == 0 || seq <= rt.MinLiveFrontier()+window {
		return false, nil
	}
	limit := time.Now().Add(rt.cfg.SuspectAfter)
	for {
		if seq <= rt.MinLiveFrontier()+window || time.Now().After(limit) {
			return true, nil
		}
		select {
		case <-rt.cfg.Halt:
			return true, fmt.Errorf("cluster: rank %d: %w", rank, ErrHalted)
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// AdmitJoin is the elastic scale-up handshake: it admits a brand-new
// rank into the view (growing it), bumps the epoch so survivors force a
// parameter re-sync, seeds the rank's staleness frontier at the global
// one, and hands back a copy of the newest published checkpoint to
// restore plus the frontier seq to resume at. The caller then attaches a
// transport via Join and runs the normal worker loop from that frontier.
func (rt *Runtime) AdmitJoin(rank int) (View, uint64, *checkpoint.State, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rank < 0 || rank >= rt.p {
		return View{}, 0, nil, fmt.Errorf("cluster: join rank %d out of range [0,%d)", rank, rt.p)
	}
	if rt.joined[rank] {
		return View{}, 0, nil, fmt.Errorf("cluster: rank %d already admitted", rank)
	}
	rt.joined[rank] = true
	rt.joinedBits[rank].Store(true)
	rt.setAlive(rank, true)
	rt.perRank[rank] = rt.frontier
	rt.elasticJoins.Add(1)
	return rt.view(), rt.frontier, rt.ckpt.Clone(), nil
}

// suspect declares rank dead on behalf of `by`. It refuses when `by` is
// itself evicted (an out-of-view rank must not mutate the view) and when
// the change would leave ≤ p/2 survivors (quorum guard).
func (rt *Runtime) suspect(rank, by int) (View, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !rt.alive[by] {
		return View{}, fmt.Errorf("cluster: rank %d suspecting %d: %w", by, rank, ErrEvicted)
	}
	if !rt.alive[rank] { // already dead: no-op
		return rt.view(), nil
	}
	n, adm := 0, 0
	for r, a := range rt.alive {
		if a {
			n++
		}
		if rt.joined[r] {
			adm++
		}
	}
	// Quorum is measured against the admitted membership, not the array
	// capacity: elastic slots that never joined are not voters, and each
	// AdmitJoin grows the electorate.
	if n-1 <= adm/2 {
		return View{}, fmt.Errorf("cluster: rank %d suspecting %d would leave %d/%d alive: %w",
			by, rank, n-1, adm, ErrNoQuorum)
	}
	rt.setAlive(rank, false)
	rt.suspicions.Add(1)
	rt.cSuspicions.Inc(by)
	return rt.view(), nil
}

// rejoin re-admits rank to the view, returning the new view, the
// exchange frontier (the seq to resume at) and a copy of the latest
// checkpoint to restore (nil when the rank was never evicted — its live
// state is still valid — or when none was published).
func (rt *Runtime) rejoin(rank int) (View, uint64, *checkpoint.State, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.rejoinCount[rank] >= maxRejoins {
		return View{}, 0, nil, fmt.Errorf("cluster: rank %d exceeded %d rejoins: %w",
			rank, maxRejoins, ErrEvicted)
	}
	rt.rejoinCount[rank]++
	var st *checkpoint.State
	if !rt.alive[rank] {
		// Evicted: restore the checkpoint. A transient self-down without
		// eviction keeps its live state, intact and strictly fresher.
		st = rt.ckpt.Clone()
	}
	rt.setAlive(rank, true)
	// The rejoiner resumes at the frontier; seeding its per-rank frontier
	// there keeps a bounded-staleness fleet from throttling on the stale
	// pre-crash value until its first exchange lands.
	rt.perRank[rank] = rt.frontier
	rt.rejoins.Add(1)
	return rt.view(), rt.frontier, st, nil
}

// observeRTT records a heartbeat round trip to peer.
func (rt *Runtime) observeRTT(peer int, seconds float64) {
	if peer >= 0 && peer < len(rt.rtt) {
		rt.rtt[peer].Set(seconds)
	}
}

func (rt *Runtime) noteRetry(rank, n int) {
	rt.retries.Add(uint64(n))
	rt.cRetries.Add(rank, n)
}

func (rt *Runtime) noteDegraded(rank int) {
	rt.degraded.Add(1)
	rt.cDegraded.Inc(rank)
}

func (rt *Runtime) noteStaleReuse() { rt.staleReuses.Add(1) }

// noteStaleness records the staleness (in seqs) of one damped fold: the
// current gauge tracks the latest fold, the max gauge the worst ever.
func (rt *Runtime) noteStaleness(d uint64) {
	rt.staleCur.Store(d)
	for {
		cur := rt.staleMax.Load()
		if d <= cur || rt.staleMax.CompareAndSwap(cur, d) {
			return
		}
	}
}

func (rt *Runtime) noteGossipRound() { rt.gossipRounds.Add(1) }

func (rt *Runtime) noteCorrupt() { rt.corruptFrames.Add(1) }

func (rt *Runtime) noteSkippedSync() { rt.skippedSyncs.Add(1) }
