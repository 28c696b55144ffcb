package dist

// The gradient round. pipeline runs the compressed-message round the paper
// describes — compress, allgather, decode the messages, average — bucket by
// bucket as a two-stage pipeline: while bucket b's message is in flight
// (gather + average), bucket b+1 is still being compressed. The two stages
// touch disjoint state (bucket b's message and avg slices vs bucket b+1's
// grad slice and codec), so the only synchronization is the hand-off to the
// pipeline's compress goroutine and its reply between pipeline steps. The
// monolithic exchange is the one-bucket case: one compress, one gather,
// nothing to overlap. Every runtime uses this one pipeline; what differs
// between them sits behind link: barrierLink (the strategy-scheduled
// in-process collectives every rank enters in lockstep, here), clusterLink
// and gossipLink (the failure-aware mesh, fault.go).
//
// Numerics are independent of the bucket count's scheduling: every rank
// averages the same reconstructions of the same gradient slices in the
// same order, traced or untraced.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"fftgrad/internal/collective"
	"fftgrad/internal/comm"
	"fftgrad/internal/compress"
	"fftgrad/internal/trace"
)

// link is one runtime's wire under the bucket pipeline, and the only seam
// between runtimes.
type link interface {
	// admit holds the round back until the runtime lets iteration iter
	// start; errHalted when the run's stop signal fired meanwhile.
	admit(iter int) error
	// gather ships msg as this rank's contribution to bucket b of iteration
	// iter and returns everything to average for that bucket. A recoverable
	// failure of the local endpoint is returned as *aborted.
	gather(iter, b int, msg []byte) (gathered, error)
	// sync re-aligns the replicas' parameters after iteration iter and
	// returns the payload bytes, 0 when the sync was skipped or abandoned.
	// It fails like gather does.
	sync(iter int) (bytes int, err error)
	// epochEnd runs at every epoch boundary, after the sync.
	epochEnd(iter int)
}

// gathered is one bucket's contributions in summation order: msgs[k]
// weighs wt[k], and a nil message contributes nothing. The barrier weighs
// every rank one; the mesh damps a cached message to λ^d; gossip gives its
// neighbours their Metropolis weights and itself, last, the remainder.
type gathered struct {
	msgs  [][]byte
	wt    []float32
	stale []bool // msgs served from a peer's cache (nil: none)
	// bank > 0: a contribution damped to wt < 1 keeps its withheld mass in
	// the stream — (1−wt)/bank of it goes to this rank's residual, bank
	// being the contributor count the fleet splits it over.
	bank int
	// The peer this rank waited for longest inside the gather and the
	// marginal wait it caused; slowest is -1 when nobody was waited for.
	slowest int
	waitNs  int64
	resync  bool // the membership view changed under the gather
}

// average folds g's messages through bucket b's codec and leaves their
// weighted mean, Σ wt·decode(msg) / Σ wt, in avg[lo:hi]. It reports how
// many messages it folded and the largest of them. This is the only place
// compressed gradients are decoded and summed (ROADMAP item 2 changes
// what the codec does behind it).
//
// Each message is decoded straight into the running sum by
// compress.AccumulateInto, the last one with the 1/Σwt scale folded in,
// so every element takes the float32 operations of the dense loop —
// avg = +0; avg += wt·x per message; avg *= 1/Σwt — in the same order. A
// damped contribution whose withheld mass is banked (wt < 1, bank > 0)
// still decodes densely, into the worker's dense buffer, for the residual.
func (w *worker) average(codec compress.Compressor, b int, g *gathered) (n, max int, err error) {
	lo, hi := w.bk.Range(b)
	avg := w.avg[lo:hi]
	clear(avg)
	var wsum float32
	last := -1
	for k, m := range g.msgs {
		if m != nil {
			wsum += g.wt[k]
			last = k
		}
	}
	// This rank's own message is always among the contributions, so the
	// weight sum is positive.
	inv := 1 / wsum
	for k, m := range g.msgs {
		if m == nil {
			continue
		}
		wt, scale := g.wt[k], float32(1)
		if k == last {
			scale = inv
		}
		if err := w.accumulate(codec, b, avg, m, wt, scale, g.bank); err != nil {
			return 0, 0, fmt.Errorf("bucket %d decompress: %w", b, err)
		}
		n++
		if len(m) > max {
			max = len(m)
		}
	}
	return n, max, nil
}

// accumulate folds one message into avg: (avg + wt·decode(m))·scale.
func (w *worker) accumulate(codec compress.Compressor, b int, avg []float32, m []byte, wt, scale float32, bank int) error {
	if wt < 1 && bank > 0 {
		if sink, ok := compress.As[scaledResidualSink](w.comps[b]); ok {
			xb := w.denseOf(len(avg))
			if err := codec.DecompressInto(xb, m); err != nil {
				return err
			}
			compress.Accumulate(avg, xb, wt, scale)
			sink.AddToResidualScaled(xb, (1-wt)/float32(bank))
			return nil
		}
	}
	return compress.AccumulateInto(codec, avg, m, wt, scale)
}

// pipeline is the bucketed compress → gather → average round.
type pipeline struct {
	link
	w *worker

	// Per-bucket compressed messages, double-buffered by iteration parity:
	// the barrier's Allgather returns aliases of the senders' buffers, and
	// peers keep reading iteration i's message while decompressing — but
	// every rank must finish that before it can enter iteration i+1's first
	// barrier. So by the time this rank compresses iteration i+1 into the
	// buffer last sent at i-1, no reader of that buffer remains, and the
	// steady state is allocation-free. (A mesh send copies the message
	// into a receive buffer the peer's endpoint lends it, so the failure-
	// aware links would do with one; a peer's message in a gathered result
	// is valid until the member's next exchange call.)
	msgs [2][][]byte

	// The round in progress, read by the two pipeline stages. The caller
	// of round runs the exchange stage; a bucketed pipeline owns one
	// long-lived goroutine for the compress stage (stop ends it), handed a
	// bucket over ahead and answering on cmpDone with cmpErr set, so a
	// round starts no goroutine and allocates nothing.
	iter       int
	compressed bool
	drift      bool
	ahead      chan int      // nil when there is one bucket: nothing overlaps
	cmpDone    chan struct{} // closed when the compress goroutine exits
	cmpErr     error

	// Per-bucket results, written only by the bucket's own stage.
	cmpD, exD, decD []time.Duration
	sizes           []int
	modelS          []float64
	endNs           int64
	resync          bool
	blamePeer       int64
	blameWaitNs     int64
}

func newPipeline(w *worker, l link) *pipeline {
	nb := w.bk.Count()
	e := &pipeline{
		link:   l,
		w:      w,
		msgs:   [2][][]byte{make([][]byte, nb), make([][]byte, nb)},
		cmpD:   make([]time.Duration, nb),
		exD:    make([]time.Duration, nb),
		decD:   make([]time.Duration, nb),
		sizes:  make([]int, nb),
		modelS: make([]float64, nb),
	}
	if nb > 1 {
		e.ahead, e.cmpDone = make(chan int), make(chan struct{})
		go e.compressAhead()
	}
	return e
}

// compressAhead is the pipeline's compress stage: it compresses each
// bucket handed over on ahead and reports back on cmpDone.
func (e *pipeline) compressAhead() {
	defer close(e.cmpDone)
	for b := range e.ahead {
		e.cmpErr = e.compressBucket(b)
		e.cmpDone <- struct{}{}
	}
}

// stop ends the compress goroutine and returns once it has exited. No
// round may be in progress or follow.
func (e *pipeline) stop() {
	if e.ahead != nil {
		close(e.ahead)
		<-e.cmpDone
	}
}

func (e *pipeline) compressBucket(b int) error {
	w := e.w
	lo, hi := w.bk.Range(b)
	t0 := time.Now()
	msg, err := w.pick(b, e.compressed).AppendCompress(e.msgs[e.iter&1][b][:0], w.grad[lo:hi])
	if err != nil {
		return fmt.Errorf("bucket %d compress: %w", b, err)
	}
	e.msgs[e.iter&1][b] = msg
	e.cmpD[b] = time.Since(t0)
	e.sizes[b] = len(msg)
	w.tc.SpanTimed(trace.OpCompress, int64(len(msg)), t0, e.cmpD[b])
	return nil
}

// exchangeBucket gathers bucket b's contributions and averages them into
// avg[lo:hi].
func (e *pipeline) exchangeBucket(b int) error {
	w := e.w
	tEx := time.Now()
	g, err := e.gather(e.iter, b, e.msgs[e.iter&1][b])
	e.exD[b] = time.Since(tEx)
	w.tc.SpanTimed(trace.OpExchange, int64(e.sizes[b]), tEx, e.exD[b])
	e.endNs = w.oc.NowNs() // the last bucket's gather is the clock anchor
	if err != nil {
		return err
	}
	if g.slowest >= 0 && (e.blamePeer < 0 || g.waitNs > e.blameWaitNs) {
		e.blamePeer, e.blameWaitNs = int64(g.slowest), g.waitNs
	}

	t0 := time.Now()
	n, max, err := w.average(w.pick(b, e.compressed), b, &g)
	if err != nil {
		return err
	}
	e.decD[b] = time.Since(t0)
	w.tc.SpanTimed(trace.OpDecompress, int64(n), t0, e.decD[b])
	if b == 0 && e.drift && w.gs.checkDrift(g.msgs, g.stale) {
		e.resync = true
	}
	e.resync = e.resync || g.resync
	e.modelS[b] = w.observeRound(e.sizes[b], max, e.exD[b].Seconds())
	if len(e.sizes) > 1 {
		w.tc.SpanSince(trace.OpBucket, int64(b), tEx)
	}
	return nil
}

// round runs compress(0); for b: { gather+average(b) ∥ compress(b+1) }
// through the worker's bucket codecs (the wire-FP32 twins when compressed
// is false), leaving the cross-rank average in worker.avg. A recoverable
// failure of the local endpoint is returned as *aborted; any other error
// ends the run.
func (e *pipeline) round(iter int, compressed bool) (roundStats, error) {
	w := e.w
	if err := e.admit(iter); err != nil {
		return roundStats{}, err
	}
	e.iter, e.compressed = iter, compressed
	e.resync, e.blamePeer, e.blameWaitNs = false, -1, 0
	// One fingerprint per iteration, riding bucket 0's frame.
	if e.drift = w.gs.driftDue(iter); e.drift {
		w.gs.attachFingerprint(w.net, w.pick(0, compressed))
	}
	nb := len(e.sizes)
	if err := e.compressBucket(0); err != nil {
		return roundStats{}, err
	}
	for b := 0; b < nb; b++ {
		e.cmpErr = nil
		if b+1 < nb {
			e.ahead <- b + 1
		}
		exErr := e.exchangeBucket(b)
		if b+1 < nb {
			<-e.cmpDone
		}
		if exErr != nil {
			var ab *aborted
			if errors.As(exErr, &ab) {
				// What was built: the aborted bucket's message, and the next
				// one when it was compressed beside the gather.
				built := b + 1
				if built < nb && e.cmpErr == nil {
					built++
				}
				ab.msgs = e.msgs[iter&1][:built]
			}
			return roundStats{}, exErr
		}
		if e.cmpErr != nil {
			return roundStats{}, e.cmpErr
		}
	}
	st := roundStats{endNs: e.endNs, blamePeer: e.blamePeer, blameWaitNs: e.blameWaitNs, resync: e.resync}
	for b := 0; b < nb; b++ {
		st.compressT += e.cmpD[b]
		st.decompressT += e.decD[b]
		st.exchangeS += e.exD[b].Seconds()
		st.modelS += e.modelS[b]
		st.msgBytes += e.sizes[b]
	}
	return st, w.alpha.measure(w, iter)
}

// barrierLink is the barrier runtime: it gathers through the strategy's
// allgather — every rank, every round, each weighing one — and syncs the
// parameters as a broadcast from rank 0.
type barrierLink struct {
	w    *worker
	ex   *collective.Exchanger
	ones []float32
}

func newBarrierLink(w *worker, cm *comm.Comm) *barrierLink {
	cm.AttachTrace(w.tc)
	if w.cfg.MeasureAlpha {
		w.alpha = &alphaProbe{cm: cm}
	}
	l := &barrierLink{w: w, ex: collective.New(w.cfg.Collective, cm), ones: make([]float32, w.p)}
	for i := range l.ones {
		l.ones[i] = 1
	}
	return l
}

func (l *barrierLink) admit(int) error { return nil }

func (l *barrierLink) gather(_, _ int, msg []byte) (gathered, error) {
	return gathered{msgs: l.ex.Allgather(msg), wt: l.ones, slowest: -1}, nil
}

func (l *barrierLink) sync(iter int) (int, error) {
	return l.w.syncFrom(iter, 0, func(payload []byte) ([]byte, bool, error) {
		return l.ex.Broadcast(payload, 0), true, nil
	})
}

func (l *barrierLink) epochEnd(int) {}

// alphaProbe is the Config.MeasureAlpha side channel (nil when off): raw-
// FP32 messages double-buffered like the gradient messages, and rank 0's
// decode scratch.
type alphaProbe struct {
	cm               *comm.Comm
	rawBufs          [2][]byte
	rawAvg, alphaTmp []float32
}

// measure allgathers the raw FP32 gradients (off the timed path, and
// outside the guarded data plane — it is a measurement) and records the
// Assumption 3.2 constant α = ‖v̄−v̂̄‖/‖v̄‖ of this round's average on
// rank 0.
func (r *alphaProbe) measure(w *worker, iter int) error {
	if r == nil {
		return nil
	}
	fp32 := compress.FP32{}
	raw, err := fp32.AppendCompress(r.rawBufs[iter&1][:0], w.grad)
	if err != nil {
		return err
	}
	r.rawBufs[iter&1] = raw
	cm := r.cm
	raws := cm.Allgather(raw)
	if w.rank == 0 {
		if r.rawAvg == nil {
			r.rawAvg = make([]float32, w.n)
			r.alphaTmp = make([]float32, w.n)
		}
		clear(r.rawAvg)
		for _, m := range raws {
			if err := fp32.DecompressInto(r.alphaTmp, m); err != nil {
				return err
			}
			for i, v := range r.alphaTmp {
				r.rawAvg[i] += v
			}
		}
		inv := 1 / float32(w.p)
		var num, den float64
		for i, v := range r.rawAvg {
			v *= inv
			d := float64(v - w.avg[i])
			num += d * d
			den += float64(v) * float64(v)
		}
		alpha := 0.0
		if den > 0 {
			alpha = math.Sqrt(num / den)
		}
		w.res.Alpha = append(w.res.Alpha, alpha)
	}
	// The raw messages alias the senders' buffers: nobody moves on until
	// rank 0 has finished reading them.
	cm.Barrier()
	return nil
}
