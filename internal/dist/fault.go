package dist

// Failure-aware training path: when Config.Fault is set, the exchange
// runs through the internal/cluster runtime over a point-to-point mesh
// instead of the barrier-based collectives. Dead ranks are suspected and
// handled by the configured degradation policy, stragglers by the
// straggler policy, and a crashed rank rejoins mid-run from the latest
// in-runtime checkpoint. Config.Fault.Chaos optionally wraps every
// worker's transport in the deterministic fault injector — the test
// harness for all of the above.
//
// On top of the strict per-round exchange the path offers two
// asynchrony modes and one elasticity mechanism:
//
//   - Bounded staleness (Fault.Staleness = K > 0): ranks may run up to K
//     iterations ahead of the slowest live rank (Runtime.WaitWithinWindow
//     throttles the front); a peer that misses the per-round grace budget
//     contributes its freshest cached gradient damped by λ^d (λ =
//     Fault.StalenessDiscount, d = iterations stale), and each receiver
//     banks its share of the withheld (1−λ^d) mass into the
//     error-feedback residual, so damping defers information instead of
//     destroying it — the DGC/SSP regime under the same Sec. 3.4
//     bounded-error budget that covers sparsification.
//
//   - Gossip (Collective.Strategy = "gossip"): decentralized D-PSGD-style
//     averaging with the two nearest live ring neighbors under Metropolis
//     mixing weights. No root, no global barrier: a partition slows
//     convergence on each side but never stalls a round, and the periodic
//     parameter sync becomes a parameter *gossip* round under the same
//     weights instead of a root broadcast.
//
//   - Elastic scale-up (Fault.ElasticJoins): brand-new ranks enter
//     mid-run once the exchange frontier reaches their scheduled
//     iteration — the join handshake (Runtime.AdmitJoin) grows the view,
//     bumps the epoch (forcing a re-sync), restores the newest published
//     checkpoint on the joiner, and enters it at the frontier.
//
// Divergence accounting: a degraded round makes survivors average over
// fewer (or stale-damped) contributions, so replicas can drift apart
// until the next parameter re-broadcast. The runtime therefore forces a
// re-sync whenever the membership epoch changes, and a rank whose own
// gradient was computed but never shipped folds it into the feedback
// residual (when the compressor is error-feedback wrapped) — the same
// bounded-error budget that covers sparsification (Assumption 3.2 /
// Sec. 3.4) covers the stale or missing contribution.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"fftgrad/internal/chaos"
	"fftgrad/internal/checkpoint"
	"fftgrad/internal/cluster"
	"fftgrad/internal/collective"
	"fftgrad/internal/comm"
	"fftgrad/internal/guard"
	"fftgrad/internal/trace"
)

// FaultConfig enables the failure-aware runtime for a run.
type FaultConfig struct {
	// Cluster tunes heartbeats, retry/backoff, policies and rejoin.
	Cluster cluster.Config
	// Chaos, when non-nil, injects the given deterministic fault schedule
	// into every worker's transport.
	Chaos *chaos.Config

	// Staleness > 0 enables the bounded-staleness (SSP-style) exchange:
	// a rank may run up to Staleness iterations ahead of the slowest
	// live rank, and a peer missing the per-round grace budget
	// contributes its freshest cached gradient damped by
	// StalenessDiscount^d (d = iterations stale). 0 keeps the strict
	// per-round exchange.
	Staleness int
	// StalenessDiscount is the per-iteration damping factor λ ∈ (0,1]
	// applied to stale contributions; the withheld (1−λ^d) share is
	// banked in the error-feedback residual. 0 defaults to 0.9.
	StalenessDiscount float64

	// ElasticJoins schedules brand-new ranks entering mid-run: entry k
	// admits rank Workers+k once the exchange frontier reaches the given
	// iteration. A joiner restores the newest published checkpoint,
	// enters at the frontier, and grows the view (epoch bump → forced
	// parameter re-sync on every survivor).
	ElasticJoins []int
}

// FaultReport is the end-of-run fault accounting (Result.Fault).
type FaultReport struct {
	// Cluster is the runtime's cumulative view: retries, suspicions,
	// degraded iterations, stale reuses, rejoins, elastic joins, gossip
	// rounds, skipped syncs.
	Cluster cluster.Stats
	// Chaos counts the injected faults (nil when no chaos was configured).
	Chaos *chaos.Stats
	// LostWorkers counts ranks that left permanently and did not return
	// (the run still completed under the degradation policy).
	LostWorkers int
}

// trainFault is Train for Config.Fault != nil.
func trainFault(cfg Config) (*Result, error) {
	colCfg := cfg.strategy()
	gossip := colCfg.Strategy == collective.Gossip

	p := cfg.Workers
	joins := cfg.Fault.ElasticJoins
	pmax := p + len(joins)

	// Seqs per iteration: buckets burn Count() exchange seqs, gossip
	// burns two (gradient round, then the parameter-consensus round).
	spi := collective.MakeBuckets(cfg.Model(cfg.Seed).NumParams(), colCfg.BucketBytes).Count()
	if gossip {
		spi = 2
	}

	clCfg := cfg.Fault.Cluster
	if clCfg.Halt == nil {
		// A canceled/drained job must not wait out RejoinWait on a rank
		// parked in rejoin; the halt signal abandons the park.
		clCfg.Halt = cfg.Stop
	}
	if cfg.Guard != nil && cfg.Guard.Framing() {
		// Guard framing on: the cluster receiver rejects corrupt frames
		// before they can reach a decompressor; nack/resend repairs them.
		clCfg.Verify = guard.Verify
	}
	if clCfg.SendDepth <= 0 && (spi > 1 || cfg.Fault.Staleness > 0) {
		// Multi-seq iterations and bounded staleness both let the seq
		// drift between the front rank and a laggard span whole
		// iterations of seqs; size the resend cache to cover the window
		// or nack repair of old rounds silently fails.
		clCfg.SendDepth = (2+cfg.Fault.Staleness)*spi + 2
	}
	rt := cluster.NewElastic(p, pmax, clCfg)
	rt.AttachTracer(cfg.Tracer)
	net := comm.NewMesh(pmax)
	sources := []instrumented{rt}
	var harness *chaos.Harness
	if cfg.Fault.Chaos != nil {
		harness = chaos.NewHarness(pmax, *cfg.Fault.Chaos)
		harness.AttachTracer(cfg.Tracer)
		sources = append(sources, harness)
	}
	cfg.instrument(sources...)
	rt.AttachStageTimer(cfg.stageTimer)

	members := make([]*cluster.Member, pmax)
	results := make([]*Result, pmax)
	errs := make([]error, pmax)
	// run is one rank's life on the mesh, from joining it to the end of
	// training. A worker that finished cleanly keeps its member alive —
	// heartbeats and nack repair keep serving a slower rank still catching
	// up after a rejoin. A terminally failed worker goes silent instead,
	// so survivors suspect it rather than waiting on a straggler that will
	// never deliver.
	run := func(rank, startIter int, restore *checkpoint.State) {
		var tr comm.Transport = net.Endpoint(rank)
		if harness != nil {
			tr = harness.Wrap(tr)
		}
		m := rt.Join(tr)
		members[rank] = m
		results[rank], errs[rank] = runRank(cfg, rank, pmax, startIter, restore, func(w *worker) link {
			if gossip {
				return newGossipLink(newMesh(w, m, rt, spi))
			}
			return &clusterLink{newMesh(w, m, rt, spi)}
		})
		if errs[rank] != nil {
			m.Close()
		}
	}

	var wg, wgJoin sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		rank := rank
		cfg.spawn(&wg, rank, func() { run(rank, 0, nil) })
	}

	// Elastic join watchers: each parks until the fleet's exchange
	// frontier reaches its scheduled iteration, then runs the join
	// handshake and becomes a regular worker from the frontier on. A
	// watcher whose moment never comes (halt, early completion) exits
	// without joining.
	trainingDone := make(chan struct{})
	for k, atIter := range joins {
		rank, target := p+k, uint64(atIter)*uint64(spi)
		cfg.spawn(&wgJoin, rank, func() {
			for rt.Frontier() < target {
				select {
				case <-trainingDone:
					return
				case <-clCfg.Halt:
					return
				case <-time.After(200 * time.Microsecond):
				}
			}
			_, frontier, st, err := rt.AdmitJoin(rank)
			if err != nil {
				errs[rank] = fmt.Errorf("dist: rank %d join: %w", rank, err)
				return
			}
			// The view just grew: dump the timeline so the quorum change
			// and the frontier the joiner entered at are on record.
			cfg.Flight.Trigger(rank, trace.ReasonViewGrow)
			run(rank, int(frontier)/spi, st)
		})
	}

	wg.Wait()
	close(trainingDone)
	wgJoin.Wait()
	for _, m := range members {
		if m != nil {
			m.Close()
		}
	}

	report := &FaultReport{Cluster: rt.Stats()}
	if harness != nil {
		s := harness.Stats()
		report.Chaos = &s
	}
	for rank, err := range errs {
		if err == nil {
			continue
		}
		// A non-root rank that died and could not come back is a degraded
		// but successful run — exactly what the policies exist for. Every
		// other error class (quorum loss, fail-fast, stall, or losing the
		// bookkeeping root) fails the run, typed.
		if rank != 0 && (cluster.IsRecoverable(err) || errors.Is(err, cluster.ErrRejoinTimeout) || errors.Is(err, cluster.ErrHalted)) {
			report.LostWorkers++
			continue
		}
		// Terminal failure: dump the timeline before surfacing the error —
		// the last N iterations are exactly the postmortem evidence.
		if errors.Is(err, cluster.ErrNoQuorum) {
			cfg.Flight.Trigger(rank, trace.ReasonNoQuorum)
		} else {
			cfg.Flight.Trigger(rank, trace.ReasonFailure)
		}
		return nil, err
	}
	res := cfg.finish(results[0])
	res.Fault = report
	if res.Guard != nil {
		res.Guard.CorruptFrames = report.Cluster.CorruptFrames
	}
	return res, nil
}

// mesh is what the failure-aware links share: this rank's member on the
// point-to-point mesh (nack/resend repairs individual links, so the
// hier/tree strategies inform the modeled collective price only), the
// rejoin protocol, and the checkpoint store rejoiners restore from. A
// gather runs under sequence number iter·spi+b, so a crash mid-iteration
// lands between buckets.
type mesh struct {
	w   *worker
	m   *cluster.Member
	rt  *cluster.Runtime
	spi int // exchange seqs one iteration burns

	// lambda damps a contribution d iterations stale by λ^d; window is the
	// bounded-staleness budget K in seqs (0 = strict rounds).
	lambda float64
	window uint64
	view   cluster.View // the view the last gather completed under
	wt     []float32    // gathered.wt, reused across gathers
	// spare is the checkpoint this rank captures into when it publishes;
	// a publish hands back the state it replaced as the next spare.
	spare *checkpoint.State
}

// newMesh also seeds the rejoin store, so a rank crashing before the
// first epoch boundary can still restore something consistent.
func newMesh(w *worker, m *cluster.Member, rt *cluster.Runtime, spi int) mesh {
	f := w.cfg.Fault
	x := mesh{w: w, m: m, rt: rt, spi: spi, lambda: f.StalenessDiscount, window: uint64(f.Staleness) * uint64(spi), wt: make([]float32, 0, w.p)}
	if x.lambda <= 0 || x.lambda > 1 {
		x.lambda = 0.9
	}
	if w.rank == 0 {
		x.spare = rt.PublishCheckpoint(checkpoint.Capture(w.net, w.sgd, 0, 0), 0)
	}
	return x
}

// failed classifies an exchange error: a recoverable one — the local
// transport is inside a crash window, or this rank was evicted — becomes
// the aborted outcome the step handles; anything else is terminal.
func (x *mesh) failed(err error, what string, iter, bucket int) error {
	if cluster.IsRecoverable(err) {
		return &aborted{cause: err, bucket: bucket, rejoin: x.rejoin}
	}
	return fmt.Errorf("%s %d.%d: %w", what, iter, bucket, err)
}

// rejoin parks until the transport heals and fast-forwards to the
// exchange frontier. The frontier is in seq units; resume at the
// iteration *containing* it — never past it: survivors parked
// mid-iteration are waiting on this rank's remaining rounds, so skipping
// to the next boundary would deadlock both sides. Replaying the
// iteration's earlier seqs is safe: peers discard late data for completed
// rounds and serve (or degrade) the replayed exchanges from their send
// cache.
func (x *mesh) rejoin(iter int) (int, *checkpoint.State, error) {
	_, frontier, st, err := x.m.AwaitRejoin()
	if err != nil {
		return 0, nil, err
	}
	if f := int(frontier) / x.spi; f > iter {
		iter = f
	}
	return iter, st, nil
}

// epochEnd publishes the rejoin/join checkpoint from the current sync
// root (not necessarily rank 0 — it may be dead), captured into the spare
// the last publish handed back, so a publish allocates no model-size
// vector.
func (x *mesh) epochEnd(iter int) {
	w := x.w
	if w.rank == x.view.LowestAlive() {
		st := checkpoint.CaptureInto(x.spare, w.net, w.sgd, int64(iter/w.cfg.ItersPerEpoch), int64(iter))
		x.spare = x.rt.PublishCheckpoint(st, uint64((iter+1)*x.spi))
	}
}

// admit is the bounded-staleness brake: never start an exchange more
// than K iterations ahead of the slowest live rank's frontier.
func (x *mesh) admit(iter int) error {
	if x.window == 0 {
		return nil
	}
	if _, err := x.rt.WaitWithinWindow(x.w.rank, uint64(iter*x.spi), x.window); err != nil {
		return errHalted
	}
	return nil
}

// staleWeight is the one rule for a contribution served from a peer's
// cache, d seqs old (0 when the strict exchange reused it without
// measuring its age). It counts only when it is provably this stream's
// payload from a whole number of iterations back — at one seq per
// iteration that is every cached payload — and is damped by λ per
// iteration of age. ok is false when the entry must be dropped.
func (x *mesh) staleWeight(d uint64) (wt float32, ok bool) {
	spi := uint64(x.spi)
	if d%spi != 0 || (d == 0 && spi > 1) {
		return 0, false
	}
	return float32(math.Pow(x.lambda, float64(d/spi))), true
}

// clusterLink gathers through the member's failure-aware allgather —
// strict, or bounded under a staleness budget — and syncs by a broadcast
// from the lowest alive rank.
type clusterLink struct{ mesh }

func (x *clusterLink) gather(iter, b int, msg []byte) (gathered, error) {
	seq := uint64(iter*x.spi + b)
	var ex *cluster.ExchangeResult
	var err error
	if x.window > 0 {
		ex, err = x.m.ExchangeBounded(seq, msg, x.window)
	} else {
		ex, err = x.m.Exchange(seq, msg)
	}
	if err != nil {
		return gathered{}, x.failed(err, "exchange", iter, b)
	}
	x.view = ex.View
	return x.weigh(ex), nil
}

// weigh turns a completed allgather into the contributions to average,
// over the actual contributors: a fresh message weighs one, a cached one
// what staleWeight gives it, and the share a damped one withholds is
// banked (split over every contributor's residual).
func (x *clusterLink) weigh(ex *cluster.ExchangeResult) gathered {
	g := gathered{
		msgs: ex.Msgs, wt: x.wt[:len(ex.Msgs)], stale: ex.Stale, bank: ex.Contributors,
		slowest: ex.SlowestPeer, waitNs: ex.WaitNs, resync: ex.EpochChanged,
	}
	for j := range g.msgs {
		g.wt[j] = 1
		if ex.Stale[j] {
			var ok bool
			if g.wt[j], ok = x.staleWeight(ex.StaleBy[j]); !ok {
				g.msgs[j] = nil
			}
		}
	}
	return g
}

func (x *clusterLink) sync(iter int) (int, error) {
	root := x.view.LowestAlive()
	if root < 0 {
		return 0, nil
	}
	return x.w.syncFrom(iter, root, func(payload []byte) ([]byte, bool, error) {
		got, ok, err := x.m.SyncBroadcast(uint64((iter+1)*x.spi), payload, root)
		if err != nil {
			err = x.failed(err, "sync", iter, len(x.w.comps))
		}
		return got, ok, err
	})
}

// gossipLink is decentralized D-PSGD-style averaging with the nearest live
// ring neighbors under Metropolis weights: stream 0 (seq 2·iter) carries
// the gradient round, stream 1 the parameter-consensus round that stands
// in for the root broadcast.
type gossipLink struct {
	mesh
	msgs  [][]byte // gathered.msgs, reused across gathers
	fold  uint64   // how old (in seqs) a neighbor's cached gradient may be
	epoch uint64   // last view epoch acted on
}

func newGossipLink(x mesh) *gossipLink {
	// Gossip folds at-most-one-iteration-old caches even without an
	// explicit staleness budget (self-weight absorption covers the rest).
	fold := x.window
	if fold == 0 {
		fold = uint64(x.spi)
	}
	x.w.priceSync = x.w.col.ModelAllgather // the parameter round is a neighbor exchange too
	// Replicas intentionally differ between mixing rounds, so no drift
	// fingerprints are exchanged.
	x.w.gs.noDrift()
	return &gossipLink{mesh: x, fold: fold}
}

func (x *gossipLink) gather(iter, stream int, msg []byte) (gathered, error) {
	// A parameter round never folds a stale cache — the cache would be a
	// gradient payload from the other seq stream.
	window := x.fold
	if stream != 0 {
		window = 0
	}
	res, err := x.m.GossipExchange(uint64(iter*x.spi+stream), msg, window)
	if err != nil {
		return gathered{}, x.failed(err, "gossip", iter, stream)
	}
	x.view = res.View
	g := x.mix(res, msg)
	if stream == 0 {
		g.resync = res.View.Epoch != x.epoch
		x.epoch = res.View.Epoch
	}
	return g, nil
}

// mix weighs a gossip round: Σ w_j·peer_j + (1−Σ w_j)·self, self going in
// as the peers see it — through its own message, last. A stale fold is
// damped to w_j = PeerWeight·λ^d; an absent (or wrong-stream) cache
// contributes nothing and its mass reverts to self, so the realized
// mixing row always sums to one.
func (x *gossipLink) mix(res *cluster.GossipResult, self []byte) gathered {
	g := gathered{msgs: append(x.msgs[:0], res.Msgs...), wt: x.wt[:0], slowest: -1}
	var peerW float32
	for k := range res.Msgs {
		wt := float32(res.PeerWeight)
		if res.Stale[k] {
			damp, ok := x.staleWeight(res.StaleBy[k])
			if !ok {
				g.msgs[k] = nil
			}
			wt *= damp
		}
		g.wt = append(g.wt, wt)
		peerW += wt
	}
	g.msgs, g.wt = append(g.msgs, self), append(g.wt, 1-peerW)
	x.msgs, x.wt = g.msgs, g.wt
	return g
}

// sync is a parameter-consensus gossip round under the same Metropolis
// weights (no root to depend on).
func (x *gossipLink) sync(iter int) (int, error) {
	w := x.w
	payload, err := w.encodeParams(iter)
	if err != nil {
		return 0, err
	}
	g, err := x.gather(iter, 1, payload)
	if err != nil || len(g.msgs) == 1 { // nobody to mix with
		return 0, err
	}
	if _, _, err := w.average(w.wireSync, 0, &g); err != nil {
		return 0, fmt.Errorf("param gossip: %w", err)
	}
	w.net.SetParams(w.avg)
	return w.n * 4, nil
}
