package dist

// The training step. The paper describes one BSP iteration (Sec. 3):
// gradient → compress → exchange → decode → average → update, with the
// parameters re-aligned every SyncEvery iterations. This file is that
// iteration, written once: newWorker builds one rank's state, train runs
// the loop, and the two stages that differ between runtimes — the gradient
// round and the parameter sync — go through the bucket pipeline every
// runtime shares and the link under it (exchange.go: the pipeline and the
// barrier's link; fault.go: the links onto the cluster mesh). The
// parameter server (ps.go) has no round to exchange; it shares the step's
// local gradient, its epoch boundary and its final checkpoint.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"fftgrad/internal/checkpoint"
	"fftgrad/internal/collective"
	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/guard"
	"fftgrad/internal/nn"
	"fftgrad/internal/obs"
	"fftgrad/internal/optim"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/tensor"
	"fftgrad/internal/trace"
)

// roundStats is what one gradient round reports back to the step.
type roundStats struct {
	compressT, decompressT time.Duration
	exchangeS              float64 // measured wall time inside the collectives
	modelS                 float64 // modeled price (rank 0, with a Fabric)
	msgBytes               int     // bytes this rank put on the wire
	endNs                  int64   // profiler-clock instant the last collective returned
	// The peer this rank waited for longest and the marginal wait it
	// caused (cluster rounds only; -1 elsewhere).
	blamePeer, blameWaitNs int64
	// resync asks for an off-cycle parameter sync: fingerprint drift, or
	// the membership view changed under the round.
	resync bool
}

// aborted is the one typed outcome of a recoverable exchange failure: this
// rank's endpoint went down (or the rank was evicted) inside a round or a
// sync. bucket is the first bucket the peers never received; msgs[b] holds
// the compressed bytes of every bucket b whose message was already built —
// the pipeline compresses one bucket ahead — and the buckets beyond
// len(msgs) were never compressed. A sync abort, where the whole gradient
// was delivered, reports the bucket count.
type aborted struct {
	cause  error // the cluster's typed error
	bucket int
	msgs   [][]byte
	// rejoin parks until the rank may re-enter, and returns the iteration
	// to resume at (never before iter) and the state to restore when the
	// rank was evicted meanwhile.
	rejoin func(iter int) (int, *checkpoint.State, error)
}

func (a *aborted) Error() string { return a.cause.Error() }

// errHalted is round's report that the run's stop signal fired while the
// rank was held back by the staleness throttle.
var errHalted = errors.New("dist: halted before the exchange")

// residualSink is implemented by error-feedback compressors (found under
// any guard framing by compress.As); the step uses it to keep a
// computed-but-unshipped gradient in the information stream instead of
// discarding it. scaledResidualSink is its bounded-staleness sibling: the
// damped remainder of a stale contribution re-enters through the residual
// at the discount's complement.
type (
	residualSink       interface{ AddToResidual([]float32) }
	scaledResidualSink interface {
		AddToResidualScaled([]float32, float32)
	}
)

// worker is one rank's training state: model replica, data shard,
// optimizer, guard state, the per-bucket gradient codecs and the flat
// buffers the step shares with its pipeline.
type worker struct {
	cfg     Config
	rank, p int
	n       int               // flat gradient length
	col     collective.Config // defaulted strategy: pricing and bucketing

	// tc is this rank's timeline track and oc its profiler handle (nil
	// when off — every call degrades to a pointer check).
	tc *trace.Ctx
	oc *obs.RankCtx

	net   *nn.Network
	shard *data.Dataset
	it    *data.Iterator
	sgd   *optim.SGD
	gs    *guardState

	// x and labels are this rank's batch, refilled by every gradient():
	// the layers' input caches are read only inside that call's Backward.
	// dl is the loss gradient, rewritten by every gradient() too.
	x, dl  *tensor.Tensor
	labels []int

	// One codec per bucket (the monolithic exchange is the one-bucket
	// case), so each bucket keeps its own CRC frame and its own
	// error-feedback residual slice — the flat residual partitioned. wire
	// holds the FP32 twins the adapt bypass ships through, wireSync the
	// one parameter syncs use: under guard every exchanged message shares
	// one frame format.
	bk          collective.Buckets
	comps, wire []compress.Compressor
	wireSync    compress.Compressor

	// grad is the network's own flat gradient (nn.Network.Grad), which
	// Backward accumulates into: the next gradient() clears and rewrites
	// it, so every reader — the pipeline's compress stage, fold, the α
	// probe, the PS push — finishes inside the round or push that follows
	// the gradient(), and a GradSamples entry is a copy.
	grad, avg   []float32
	syncPayload []byte
	// dense is the one dense decode of a whole message, sized to the
	// largest bucket at first use: the banked-staleness fold (accumulate)
	// and the crash fold (fold) both run on the round's goroutine, never
	// at once.
	dense []float32

	// priceSync models one parameter sync of m bytes across n ranks: the
	// strategy's broadcast, unless the link syncs some other way.
	priceSync func(f collective.Fabric, n, m int) float64

	theta     float64 // this iteration's drop ratio (NaN without a schedule)
	forceSync bool    // sync after this iteration whatever the period says
	ex        *pipeline
	alpha     *alphaProbe // Config.MeasureAlpha's side channel (nil when off)
	res       *Result
}

// newWorker builds rank's state. restore is the elastic-join entry point:
// a mid-run joiner applies the published checkpoint on top of Resume. Rank
// p is the parameter server (ps.go), which trains on no shard.
func newWorker(cfg Config, rank, p int, restore *checkpoint.State) (*worker, error) {
	w := &worker{cfg: cfg, rank: rank, p: p, col: cfg.strategy(), theta: math.NaN()}
	w.priceSync = w.col.ModelBroadcast
	w.tc = cfg.Tracer.Rank(rank)
	w.oc = cfg.Profiler.Rank(rank)

	w.net = cfg.Model(cfg.Seed) // identical init on every rank
	w.n = w.net.NumParams()
	if rank < p {
		w.shard = cfg.Train.Shard(rank, p)
		w.it = data.NewIterator(w.shard.Len(), cfg.Batch, cfg.Seed+int64(rank)*7919)
		w.x = tensor.New(append([]int{cfg.Batch}, w.shard.Shape...)...)
		w.labels = make([]int, cfg.Batch)
	}
	w.sgd = optim.NewSGD(cfg.LR.LR(0), cfg.Momentum, w.n)
	for _, st := range []*checkpoint.State{cfg.Resume, restore} {
		if st == nil {
			continue
		}
		if err := st.Apply(w.net, w.sgd); err != nil {
			return nil, fmt.Errorf("dist: rank %d restoring checkpoint: %w", rank, err)
		}
	}
	w.forceSync = restore != nil
	w.gs = newGuardState(cfg, rank, w.tc)
	// The retained ring seeds with the initial state so a rollback always
	// has a target.
	w.gs.retain(w.net, w.sgd, 0, -1)

	w.bk = collective.MakeBuckets(w.n, w.col.BucketBytes)
	// The compressors' internal stage timings reach the track through a
	// sink-carrying handle of the shared stage timer, so Tm/Tf/Ts/Tp spans
	// get rank and iteration attribution without the compressors knowing
	// about tracing.
	wst := cfg.stageTimer.WithSink(w.tc.StageSink())
	nb := w.bk.Count()
	w.comps = make([]compress.Compressor, nb)
	w.wire = make([]compress.Compressor, nb)
	for b := range w.comps {
		w.comps[b] = w.gs.wrap(cfg.NewCompressor())
		compress.Instrument(w.comps[b], wst)
		w.wire[b] = w.gs.wrap(compress.FP32{})
	}
	// The pipeline compresses one bucket while it averages another, so
	// the bucket codecs need one encode and one decode workspace between
	// them, not one each.
	compress.ShareWork(w.comps)
	w.wireSync = w.gs.wrap(compress.FP32{})

	w.grad = w.net.Grad()
	w.avg = make([]float32, w.n)
	w.res = &Result{GradSize: w.n}
	return w, nil
}

// pick returns bucket b's wire codec for this iteration: the configured
// compressor, or the FP32 bypass when the adapt controller said so.
func (w *worker) pick(b int, compressed bool) compress.Compressor {
	if compressed {
		return w.comps[b]
	}
	return w.wire[b]
}

// setTheta drives every bucket codec implementing compress.ThetaSetter and
// reports whether any took it.
func (w *worker) setTheta(theta float64) bool {
	took := false
	for _, c := range w.comps {
		if ts, ok := compress.As[compress.ThetaSetter](c); ok {
			ts.SetTheta(theta)
			took = true
		}
	}
	return took
}

// thetaInEffect is the drop ratio this iteration runs at: what the
// schedule (or the adapt controller) last set, else bucket 0's codec's
// own; NaN for a codec without one (fp32, qsgd, terngrad).
func (w *worker) thetaInEffect() float64 {
	if !math.IsNaN(w.theta) {
		return w.theta
	}
	if c, ok := compress.As[interface{ Theta() float64 }](w.comps[0]); ok {
		return c.Theta()
	}
	return math.NaN()
}

// observeRound is called by the pipeline after every collective of a
// round (one per bucket): it feeds the live Tcomm of Eq. 2 and returns the
// collective's modeled price. With a Fabric the modeled time prices the
// exchange (the in-process wall time is not a fabric) at the largest
// message of the round; without one the measured wall time is the real
// thing (TCP or an actual deployment).
func (w *worker) observeRound(sent, max int, seconds float64) float64 {
	var modelS float64
	if w.cfg.Fabric != nil && w.rank == 0 && max > 0 {
		modelS = w.col.ModelAllgather(w.cfg.Fabric, w.p, max)
	}
	if st := w.cfg.stageTimer; st != nil && sent > 0 {
		if w.cfg.Fabric == nil {
			st.ObserveStage(telemetry.StageComm, sent, seconds)
		} else if w.rank == 0 {
			st.ObserveStage(telemetry.StageComm, max, modelS)
		}
	}
	return modelS
}

// encodeParams frames the current parameters for a sync. Reusing the
// payload buffer across syncs is safe on every link: a mesh send copies it
// into a buffer the receiving endpoint lends its member (the member
// releases it once it holds a newer sync), and on the barrier path every
// receiver finishes decoding before entering the next collective's
// barrier, at least one of which separates consecutive syncs.
func (w *worker) encodeParams(iter int) ([]byte, error) {
	payload, err := w.wireSync.AppendCompress(w.syncPayload[:0], w.net.Data())
	if err != nil {
		return nil, fmt.Errorf("encoding the sync payload of iteration %d: %w", iter, err)
	}
	w.syncPayload = payload
	return payload, nil
}

// decodeParams adopts a received sync payload as this replica's
// parameters, decoding it straight into them: wireSync (FP32, framed under
// guard) rejects a corrupt, truncated or wrong-length payload before it
// writes a value, so a failed sync leaves the parameters as they were.
func (w *worker) decodeParams(iter int, payload []byte) error {
	if err := w.wireSync.DecompressInto(w.net.Data(), payload); err != nil {
		return fmt.Errorf("decoding the sync payload of iteration %d: %w", iter, err)
	}
	return nil
}

// syncFrom is the root-broadcast parameter sync: root frames its
// parameters, bcast carries them, and every other rank adopts what it
// received — nothing when bcast reports the sync abandoned (ok false).
func (w *worker) syncFrom(iter, root int, bcast func(payload []byte) (got []byte, ok bool, err error)) (int, error) {
	var payload []byte
	if w.rank == root {
		var err error
		if payload, err = w.encodeParams(iter); err != nil {
			return 0, err
		}
	}
	got, ok, err := bcast(payload)
	if err != nil || !ok {
		return 0, err
	}
	if w.rank != root {
		if err := w.decodeParams(iter, got); err != nil {
			return 0, err
		}
	}
	return w.n * 4, nil
}

// recover handles an aborted round or sync — the only place a recoverable
// exchange failure is dealt with: dump the timeline while the pre-crash
// events are still in the ring, keep what was computed but never shipped
// in the error-feedback stream, park until the rank may re-enter, and
// report the iteration to resume at.
func (w *worker) recover(ab *aborted, iter int, compressed bool) (int, error) {
	w.cfg.Flight.Trigger(w.rank, trace.ReasonCrash)
	if err := w.fold(ab, compressed); err != nil {
		return 0, err
	}
	next, st, err := ab.rejoin(iter)
	if err != nil {
		return 0, err
	}
	if st != nil {
		if err := st.Apply(w.net, w.sgd); err != nil {
			return 0, fmt.Errorf("restoring checkpoint on rejoin: %w", err)
		}
	}
	w.forceSync = true
	return next, nil
}

// fold returns the undelivered part of this iteration's gradient to the
// per-bucket error-feedback residuals (DGC's accumulation rule, Sec. 5),
// so that each ends at exactly previous residual + gradient. Buckets below
// ab.bucket were averaged by the survivors; every bucket from ab.bucket up
// folds. Compressing a bucket already moved its gradient into the
// residual, less what the message carries — so for a bucket whose message
// was built, what the message carries goes back, decoded into the
// worker's dense buffer; one never compressed folds whole.
func (w *worker) fold(ab *aborted, compressed bool) error {
	for b := ab.bucket; b < len(w.comps); b++ {
		sink, ok := compress.As[residualSink](w.comps[b])
		if !ok {
			continue
		}
		lo, hi := w.bk.Range(b)
		if b >= len(ab.msgs) || !compressed {
			sink.AddToResidual(w.grad[lo:hi])
			continue
		}
		lost := w.denseOf(hi - lo)
		if err := w.comps[b].DecompressInto(lost, ab.msgs[b]); err != nil {
			return fmt.Errorf("bucket %d decoding the undelivered message: %w", b, err)
		}
		sink.AddToResidual(lost)
	}
	return nil
}

// denseOf returns the first n values of the worker's dense-decode buffer.
func (w *worker) denseOf(n int) []float32 {
	if w.dense == nil {
		size := 0
		for b := 0; b < w.bk.Count(); b++ {
			lo, hi := w.bk.Range(b)
			size = max(size, hi-lo)
		}
		w.dense = make([]float32, size)
	}
	return w.dense[:n]
}

// train runs the iteration loop from startIter and returns the rank's
// statistics (only rank 0's are reported).
func (w *worker) train(startIter int) (*Result, error) {
	cfg, res, tc, oc, gs := &w.cfg, w.res, w.tc, w.oc, w.gs
	isRoot := w.rank == 0
	fail := func(err error) (*Result, error) { return nil, fmt.Errorf("dist: rank %d: %w", w.rank, err) }
	totalIters := cfg.Epochs * cfg.ItersPerEpoch
	w.forceSync = w.forceSync || startIter > 0 // a mid-run entrant aligns first
	var totalMsgBytes, lossSum float64
	var lossCount int
	// liveRatio is the compression ratio of this rank's most recent
	// compressed message, fed to the adapt controller (which remembers it
	// across bypassed stretches so re-enablement can be judged).
	var liveRatio float64

	for iter := startIter; iter < totalIters; {
		if cfg.haltCheck(iter) {
			res.Halted = true
			break
		}
		epoch := iter / cfg.ItersPerEpoch
		w.sgd.LR = cfg.LR.LR(epoch)
		tc.SetIter(uint64(iter))
		tIter, obsStart := time.Now(), oc.NowNs()
		w.theta = math.NaN()
		if cfg.ThetaSchedule != nil {
			w.theta = cfg.ThetaSchedule.Theta(epoch)
			w.setTheta(w.theta)
		}

		// --- local gradient ---------------------------------------------
		l, computeT := w.gradient()
		if isRoot {
			lossSum += l
			lossCount++
			if cfg.SampleGradients > 0 && iter%cfg.SampleGradients == 0 {
				res.GradSamples = append(res.GradSamples, append([]float32(nil), w.grad...))
			}
		}

		// --- adaptive compression decision ------------------------------
		// All ranks consult the controller before building any message; the
		// per-iteration decision cache guarantees they agree on the wire
		// format even though telemetry keeps moving between calls.
		compressed := true
		if cfg.Adapt != nil {
			adTheta := w.theta
			if math.IsNaN(adTheta) {
				adTheta = 0 // no schedule: suppress θ suggestions
			}
			d := cfg.Adapt.DecideIter(iter, liveRatio, adTheta)
			if !d.Compress {
				compressed = false
				tc.Instant(trace.OpBypass, 0)
			} else if d.ThetaAdjusted && w.setTheta(d.Theta) {
				w.theta = d.Theta
			}
		}
		// --- compress + exchange + average, then update and sync ---------
		st, err := w.ex.round(iter, compressed)
		if err == errHalted {
			res.Halted = true
			break
		}
		var updateT, syncD time.Duration
		var syncBytes int
		if err == nil {
			if compressed && st.msgBytes > 0 {
				liveRatio = float64(4*w.n) / float64(st.msgBytes)
			}
			w.forceSync = w.forceSync || st.resync

			// The detector sees the post-average norm (identical on every
			// rank), so all ranks take the same escalation rung in lockstep.
			t0 := time.Now()
			switch gs.observe(w.avg) {
			case guard.ActionRollback:
				gs.rollback(w.net, w.sgd)
				w.forceSync = true
				if isRoot {
					// The decision is global and identical on every rank; one
					// dump (root's) captures all tracks.
					cfg.Flight.Trigger(w.rank, trace.ReasonRollback)
				}
			case guard.ActionSkip:
				// Poisoned round: no update.
			default:
				w.sgd.Step(w.net.Data(), w.avg)
			}
			updateT = time.Since(t0)
			tc.SpanTimed(trace.OpUpdate, int64(w.n), t0, updateT)

			// The periodic sync also runs early after drift, a rollback or
			// any view change: degraded rounds, rejoins and elastic joins
			// all leave replicas apart, and the re-sync is what bounds that
			// drift window.
			if (iter+1)%cfg.SyncEvery == 0 || w.forceSync {
				tSync := time.Now()
				syncBytes, err = w.ex.sync(iter)
				if err == nil {
					w.forceSync = false
					syncD = time.Since(tSync)
					tc.SpanTimed(trace.OpSync, int64(syncBytes), tSync, syncD)
				}
			}
		}
		if err != nil {
			var ab *aborted
			if !errors.As(err, &ab) {
				return fail(err)
			}
			// The iteration restarts — at the frontier the fleet reached
			// meanwhile, or in place when it is still waiting on this rank.
			if iter, err = w.recover(ab, iter, compressed); err != nil {
				return fail(err)
			}
			continue
		}

		gs.maybeRetain(iter, epoch, w.net, w.sgd)
		tc.SpanSince(trace.OpIteration, int64(st.msgBytes), tIter)
		oc.Commit(obs.IterRecord{
			Iter:         int64(iter),
			StartNs:      obsStart,
			ExchEndNs:    st.endNs,
			EndNs:        oc.NowNs(),
			ComputeNs:    computeT.Nanoseconds(),
			CompressNs:   st.compressT.Nanoseconds(),
			ExchangeNs:   int64(st.exchangeS * 1e9),
			DecompressNs: st.decompressT.Nanoseconds(),
			UpdateNs:     updateT.Nanoseconds(),
			SyncNs:       syncD.Nanoseconds(),
			MsgBytes:     int64(st.msgBytes),
			BlamePeer:    st.blamePeer,
			BlameWaitNs:  st.blameWaitNs,
		})

		// --- bookkeeping (rank 0) ---------------------------------------
		if isRoot {
			res.Iterations++
			totalMsgBytes += float64(st.msgBytes)
			res.ComputeSeconds += computeT.Seconds() + updateT.Seconds()
			res.CompressSeconds += st.compressT.Seconds() + st.decompressT.Seconds()
			res.CommMeasuredSeconds += st.exchangeS
			commS := st.modelS
			if cfg.Fabric != nil && syncBytes > 0 {
				commS += w.priceSync(cfg.Fabric, w.p, syncBytes)
			}
			res.CommSeconds += commS
			if !compressed {
				res.BypassedIterations++
			}
		}

		// --- epoch boundary ---------------------------------------------
		if (iter+1)%cfg.ItersPerEpoch == 0 {
			if isRoot {
				w.closeEpoch(epoch, lossSum/float64(lossCount))
				lossSum, lossCount = 0, 0
			}
			w.ex.epochEnd(iter)
		}
		iter++
	}

	if isRoot {
		if totalMsgBytes > 0 { // a run halted before its first round sent nothing
			res.AvgMsgBytes = totalMsgBytes / float64(res.Iterations)
			res.CompressionRatio = float64(w.n*4) / res.AvgMsgBytes
		}
		w.finalState(res.Iterations)
	}
	return res, nil
}

// gradient is the step's local half, the same on every runtime: one batch
// forward and backward on this rank's replica, accumulated in place into
// w.grad (the network's flat gradient) and scrubbed. It returns the batch
// loss and the compute time.
func (w *worker) gradient() (float64, time.Duration) {
	t0 := time.Now()
	w.shard.BatchInto(w.x, w.labels, w.it.Next())
	w.net.ZeroGrads()
	var l float64
	l, w.dl = nn.SoftmaxCE{}.LossInto(w.dl, w.net.Forward(w.x, true), w.labels)
	w.net.Backward(w.dl)
	tScrub := time.Now()
	w.gs.scrubGrad(w.grad)
	w.tc.SpanSince(trace.OpScrub, int64(w.n), tScrub)
	computeT := time.Since(t0)
	w.tc.SpanTimed(trace.OpCompute, int64(w.cfg.Batch), t0, computeT)
	return l, computeT
}

// closeEpoch is the epoch boundary of the rank that reports (rank 0, or
// the parameter server): score the model, then record and stream the
// epoch's statistics with the θ in effect.
func (w *worker) closeEpoch(epoch int, trainLoss float64) {
	cfg := &w.cfg
	stats := EpochStats{Epoch: epoch, TrainLoss: trainLoss, LR: w.sgd.LR, Theta: w.thetaInEffect()}
	if cfg.Test != nil {
		stats.TestAcc = evaluate(w.net, cfg.Test, cfg.Batch)
	}
	w.res.Epochs = append(w.res.Epochs, stats)
	if cfg.OnEpoch != nil {
		cfg.OnEpoch(stats)
	}
}

// finalState captures the reporting rank's end-of-run checkpoint after
// done iterations.
func (w *worker) finalState(done int) {
	w.res.Final = checkpoint.Capture(w.net, w.sgd, int64(done/w.cfg.ItersPerEpoch), int64(done-1))
}

// evaluate computes top-1 accuracy over the full test set in eval mode.
func evaluate(net *nn.Network, test *data.Dataset, batch int) float64 {
	correct := 0.0
	total := 0
	idx := make([]int, 0, batch)
	var x *tensor.Tensor // one batch buffer, and one more for a short last batch
	var labels []int
	for s := 0; s < test.Len(); s += batch {
		idx = idx[:0]
		for j := s; j < s+batch && j < test.Len(); j++ {
			idx = append(idx, j)
		}
		if len(labels) != len(idx) {
			x, labels = tensor.New(append([]int{len(idx)}, test.Shape...)...), make([]int, len(idx))
		}
		test.BatchInto(x, labels, idx)
		logits := net.Forward(x, false)
		correct += nn.Accuracy(logits, labels) * float64(len(idx))
		total += len(idx)
	}
	if total == 0 {
		return 0
	}
	return correct / float64(total)
}
