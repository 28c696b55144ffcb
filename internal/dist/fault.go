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
	"fftgrad/internal/compress"
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
		results[rank], errs[rank] = runRank(cfg, rank, pmax, startIter, restore, func(w *worker) exchanger {
			if gossip {
				return newGossipEx(newMesh(w, m, rt, spi))
			}
			return &clusterEx{mesh: newMesh(w, m, rt, spi)}
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

// mesh is what the failure-aware exchangers share: this rank's member on
// the point-to-point mesh (nack/resend repairs individual links, so the
// hier/tree strategies inform the modeled collective price only), the
// rejoin protocol, and the checkpoint store rejoiners restore from.
type mesh struct {
	w   *worker
	m   *cluster.Member
	rt  *cluster.Runtime
	spi int // exchange seqs one iteration burns

	// lambda damps a contribution d iterations stale by λ^d; window is the
	// bounded-staleness budget K in seqs (0 = strict rounds).
	lambda float64
	window uint64
	view   cluster.View // the view the last round completed under
}

// newMesh also seeds the rejoin store, so a rank crashing before the
// first epoch boundary can still restore something consistent.
func newMesh(w *worker, m *cluster.Member, rt *cluster.Runtime, spi int) mesh {
	f := w.cfg.Fault
	x := mesh{w: w, m: m, rt: rt, spi: spi, lambda: f.StalenessDiscount, window: uint64(f.Staleness) * uint64(spi)}
	if x.lambda <= 0 || x.lambda > 1 {
		x.lambda = 0.9
	}
	if w.rank == 0 {
		rt.PublishCheckpoint(checkpoint.Capture(w.net, w.sgd, 0, 0), 0)
	}
	return x
}

// failed classifies an exchange error: a recoverable one — the local
// transport is inside a crash window, or this rank was evicted — becomes
// the aborted outcome the step handles; anything else is terminal.
func (x *mesh) failed(err error, what string, bucket int, msg []byte) error {
	if cluster.IsRecoverable(err) {
		return &aborted{cause: err, bucket: bucket, msg: msg, rejoin: x.rejoin}
	}
	return fmt.Errorf("%s: %w", what, err)
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
// root (not necessarily rank 0 — it may be dead).
func (x *mesh) epochEnd(iter int) {
	w := x.w
	if w.rank == x.view.LowestAlive() {
		x.rt.PublishCheckpoint(checkpoint.Capture(w.net, w.sgd, int64(iter/w.cfg.ItersPerEpoch), int64(iter)), uint64((iter+1)*x.spi))
	}
}

// throttle is the bounded-staleness brake: never start an exchange more
// than K iterations ahead of the slowest live rank's frontier.
func (x *mesh) throttle(iter int) error {
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

// clusterEx runs the gradient round as the member's failure-aware
// allgather, one round per bucket under sequence numbers iter·B+b, so a
// crash mid-iteration lands between buckets; the parameter sync is a
// broadcast from the lowest alive rank.
type clusterEx struct {
	mesh
	msgBuf []byte // mesh sends copy, so one staging buffer serves every bucket
}

func (x *clusterEx) round(iter int, compressed bool) (roundStats, error) {
	w, tc, nb := x.w, x.w.tc, x.spi
	st := roundStats{blamePeer: -1}
	if err := x.throttle(iter); err != nil {
		return st, err
	}
	// One fingerprint per iteration, riding bucket 0's frame.
	drift := w.gs.driftDue(iter)
	if drift {
		w.gs.attachFingerprint(w.net, w.pick(0, compressed))
	}
	for b := 0; b < nb; b++ {
		lo, hi := w.bk.Range(b)
		comp := w.pick(b, compressed)
		t0 := time.Now()
		msg, err := comp.AppendCompress(x.msgBuf[:0], w.grad[lo:hi])
		if err != nil {
			return st, fmt.Errorf("bucket %d compress: %w", b, err)
		}
		x.msgBuf = msg
		cmpD := time.Since(t0)
		st.compressT += cmpD
		st.msgBytes += len(msg)
		tc.SpanTimed(trace.OpCompress, int64(len(msg)), t0, cmpD)

		tEx := time.Now()
		var ex *cluster.ExchangeResult
		if x.window > 0 {
			ex, err = x.m.ExchangeBounded(uint64(iter*nb+b), msg, x.window)
		} else {
			ex, err = x.m.Exchange(uint64(iter*nb+b), msg)
		}
		exD := time.Since(tEx)
		st.exchangeS += exD.Seconds()
		tc.SpanTimed(trace.OpExchange, int64(len(msg)), tEx, exD)
		st.endNs = w.oc.NowNs() // the last bucket's round wins
		if err != nil {
			return st, x.failed(err, fmt.Sprintf("exchange %d.%d", iter, b), b, msg)
		}
		// The cluster layer's in-exchange straggler attribution: the
		// peer this rank waited for longest this iteration.
		if ex.SlowestPeer >= 0 && (st.blamePeer < 0 || ex.WaitNs > st.blameWaitNs) {
			st.blamePeer, st.blameWaitNs = int64(ex.SlowestPeer), ex.WaitNs
		}

		// Average over the actual contributors. This rank's own message
		// is always fresh, so the weight sum is at least 1; the share a
		// damped contribution withholds is banked in the bucket's
		// residual.
		t0 = time.Now()
		avg, recon := w.avg[lo:hi], w.recon[lo:hi]
		for i := range avg {
			avg[i] = 0
		}
		var wsum float32
		max := 0
		for j, m := range ex.Msgs {
			if m == nil {
				continue
			}
			wt := float32(1)
			if ex.Stale != nil && ex.Stale[j] {
				var d uint64
				if ex.StaleBy != nil {
					d = ex.StaleBy[j]
				}
				var ok bool
				if wt, ok = x.staleWeight(d); !ok {
					continue
				}
			}
			if len(m) > max {
				max = len(m)
			}
			if err := comp.DecompressInto(recon, m); err != nil {
				return st, fmt.Errorf("bucket %d decompress: %w", b, err)
			}
			for i, v := range recon {
				avg[i] += wt * v
			}
			wsum += wt
			if wt < 1 {
				if sink, ok := compress.As[scaledResidualSink](w.comps[b]); ok {
					sink.AddToResidualScaled(recon, (1-wt)/float32(ex.Contributors))
				}
			}
		}
		inv := 1 / wsum
		for i := range avg {
			avg[i] *= inv
		}
		decD := time.Since(t0)
		st.decompressT += decD
		tc.SpanTimed(trace.OpDecompress, int64(ex.Contributors), t0, decD)
		if b == 0 && drift && w.gs.checkDrift(ex.Msgs, ex.Stale) {
			st.resync = true
		}
		st.resync = st.resync || ex.EpochChanged
		st.modelS += w.observeRound(len(msg), max, exD.Seconds())
		x.view = ex.View
		if nb > 1 {
			tc.SpanSince(trace.OpBucket, int64(b), tEx)
		}
	}
	return st, nil
}

func (x *clusterEx) sync(iter int) (int, error) {
	w := x.w
	root := x.view.LowestAlive()
	if root < 0 {
		return 0, nil
	}
	var payload []byte
	if w.rank == root {
		var err error
		if payload, err = w.encodeParams(iter); err != nil {
			return 0, err
		}
	}
	got, ok, err := x.m.SyncBroadcast(uint64((iter+1)*x.spi), payload, root)
	if err != nil {
		return 0, x.failed(err, fmt.Sprintf("sync %d", iter), len(w.comps), nil)
	}
	if !ok {
		return 0, nil
	}
	if w.rank != root {
		if err := w.decodeParams(iter, got); err != nil {
			return 0, err
		}
	}
	return w.n * 4, nil
}

// gossipEx is decentralized D-PSGD-style averaging with the nearest live
// ring neighbors under Metropolis weights: seq 2·iter carries the
// gradient round, seq 2·iter+1 the parameter-consensus round that stands
// in for the root broadcast. Replicas intentionally differ between mixing
// rounds, so no drift fingerprints are exchanged.
type gossipEx struct {
	mesh
	msgBuf []byte
	fold   uint64 // how old (in seqs) a neighbor's cached gradient may be
	epoch  uint64 // last view epoch acted on
}

func newGossipEx(x mesh) *gossipEx {
	// Gossip folds at-most-one-iteration-old caches even without an
	// explicit staleness budget (self-weight absorption covers the rest).
	fold := x.window
	if fold == 0 {
		fold = uint64(x.spi)
	}
	x.w.priceSync = x.w.col.ModelAllgather // the parameter round is a neighbor exchange too
	return &gossipEx{mesh: x, fold: fold}
}

// mix leaves Σ w_j·decode(peer_j) + (1−Σ w_j)·self in avg. A stale fold
// is damped to w_j = PeerWeight·λ^d; an absent (or wrong-stream) cache
// contributes nothing and its mass reverts to self, so the realized
// mixing row always sums to one. self is decoded from selfMsg when it is
// not given. Returns the largest peer message folded.
func (x *gossipEx) mix(codec compress.Compressor, g *cluster.GossipResult, self []float32, selfMsg []byte) (int, error) {
	avg, recon := x.w.avg, x.w.recon
	for i := range avg {
		avg[i] = 0
	}
	var peerW float32
	max := 0
	for k, m := range g.Msgs {
		wt := float32(g.PeerWeight)
		if g.Stale[k] {
			damp, ok := x.staleWeight(g.StaleBy[k])
			if !ok {
				continue
			}
			wt *= damp
		}
		if len(m) > max {
			max = len(m)
		}
		if err := codec.DecompressInto(recon, m); err != nil {
			return 0, err
		}
		for i, v := range recon {
			avg[i] += wt * v
		}
		peerW += wt
	}
	if self == nil {
		if err := codec.DecompressInto(recon, selfMsg); err != nil {
			return 0, err
		}
		self = recon
	}
	selfW := 1 - peerW
	for i, v := range self {
		avg[i] += selfW * v
	}
	return max, nil
}

func (x *gossipEx) round(iter int, compressed bool) (roundStats, error) {
	w, tc := x.w, x.w.tc
	st := roundStats{blamePeer: -1}
	if err := x.throttle(iter); err != nil {
		return st, err
	}
	comp := w.pick(0, compressed)
	t0 := time.Now()
	msg, err := comp.AppendCompress(x.msgBuf[:0], w.grad)
	if err != nil {
		return st, fmt.Errorf("compress: %w", err)
	}
	x.msgBuf = msg
	st.compressT = time.Since(t0)
	st.msgBytes = len(msg)
	tc.SpanTimed(trace.OpCompress, int64(len(msg)), t0, st.compressT)

	tEx := time.Now()
	g, err := x.m.GossipExchange(uint64(iter*x.spi), msg, x.fold)
	exD := time.Since(tEx)
	st.exchangeS = exD.Seconds()
	tc.SpanTimed(trace.OpExchange, int64(len(msg)), tEx, exD)
	st.endNs = w.oc.NowNs()
	if err != nil {
		return st, x.failed(err, fmt.Sprintf("gossip %d", iter), 0, msg)
	}

	// Self mixes in as the peers see it: through its own message.
	t0 = time.Now()
	max, err := x.mix(comp, g, nil, msg)
	if err != nil {
		return st, fmt.Errorf("gossip decompress: %w", err)
	}
	if len(msg) > max {
		max = len(msg)
	}
	st.decompressT = time.Since(t0)
	tc.SpanTimed(trace.OpDecompress, int64(len(g.Peers)+1), t0, st.decompressT)
	st.modelS = w.observeRound(len(msg), max, st.exchangeS)
	x.view = g.View
	st.resync = g.View.Epoch != x.epoch
	x.epoch = g.View.Epoch
	return st, nil
}

// sync is a parameter-consensus gossip round under the same Metropolis
// weights (no root to depend on).
func (x *gossipEx) sync(iter int) (int, error) {
	w := x.w
	payload, err := w.encodeParams(iter)
	if err != nil {
		return 0, err
	}
	// Window 0: a parameter round never folds a stale cache — the cache
	// would be a gradient payload from the other seq stream; an absent
	// neighbor's mass reverts to self.
	g, err := x.m.GossipExchange(uint64(iter*x.spi)+1, payload, 0)
	if err != nil {
		return 0, x.failed(err, fmt.Sprintf("param gossip %d", iter), len(w.comps), nil)
	}
	if len(g.Msgs) == 0 {
		return 0, nil
	}
	if _, err := x.mix(w.wireSync, g, w.syncFlat, nil); err != nil {
		return 0, fmt.Errorf("param gossip decode: %w", err)
	}
	w.net.SetParams(w.avg)
	return w.n * 4, nil
}
