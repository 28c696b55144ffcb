package dist

// The barrier exchangers: gradient rounds over collective.Exchanger, the
// strategy-scheduled in-process collectives every rank enters in lockstep.
//
//   - barrierEx allgathers compressed messages bucket by bucket as a
//     two-stage pipeline: while bucket b's message is in flight (exchange +
//     decompress + accumulate), bucket b+1 is still being compressed —
//     compute/communication overlap inside the exchange phase. The two
//     stages touch disjoint state (bucket b's message/recon/avg slices vs
//     bucket b+1's grad slice and codec), so the only synchronization is the
//     parallel.Run join between pipeline steps. The monolithic exchange is
//     the one-bucket case: one compress, one allgather, nothing to overlap.
//   - sparseEx sums sparsified gradients through the sparse allreduce — the
//     collective the paper's conclusion calls for — optionally selecting
//     inside MiCRO-style rotating partitions.
//
// Both share rooted: the parameter sync is a broadcast from rank 0, and the
// Assumption 3.2 α measurement rides a side-channel allgather.
//
// Numerics are independent of the bucket count's scheduling: every rank
// averages the same p reconstructions of the same gradient slices in the
// same order, traced or untraced.

import (
	"fmt"
	"math"
	"time"

	"fftgrad/internal/collective"
	"fftgrad/internal/comm"
	"fftgrad/internal/compress"
	"fftgrad/internal/pack"
	"fftgrad/internal/parallel"
	"fftgrad/internal/sparsify"
	"fftgrad/internal/trace"
)

// rooted is what the barrier exchangers share: the endpoint, the
// root-broadcast parameter sync and the α measurement.
type rooted struct {
	w  *worker
	ex *collective.Exchanger

	// MeasureAlpha state: raw-FP32 messages double-buffered like the
	// gradient messages, and rank 0's decode scratch.
	rawBufs          [2][]byte
	rawAvg, alphaTmp []float32
}

func newRooted(w *worker, cm *comm.Comm) rooted {
	cm.AttachTrace(w.tc)
	return rooted{w: w, ex: collective.New(w.cfg.Collective, cm)}
}

func (r *rooted) sync(iter int) (int, error) {
	w := r.w
	var payload []byte
	if w.rank == 0 {
		var err error
		if payload, err = w.encodeParams(iter); err != nil {
			return 0, err
		}
	}
	got := r.ex.Broadcast(payload, 0)
	if w.rank != 0 {
		if err := w.decodeParams(iter, got); err != nil {
			return 0, err
		}
	}
	return w.n * 4, nil
}

func (r *rooted) epochEnd(int) {}

// measureAlpha, under Config.MeasureAlpha, allgathers the raw FP32
// gradients (off the timed path, and outside the guarded data plane — it
// is a measurement) and records the Assumption 3.2 constant
// α = ‖v̄−v̂̄‖/‖v̄‖ of this round's average on rank 0.
func (r *rooted) measureAlpha(iter int) error {
	w := r.w
	if !w.cfg.MeasureAlpha {
		return nil
	}
	fp32 := compress.FP32{}
	raw, err := fp32.AppendCompress(r.rawBufs[iter&1][:0], w.grad)
	if err != nil {
		return err
	}
	r.rawBufs[iter&1] = raw
	cm := r.ex.Comm()
	raws := cm.Allgather(raw)
	if w.rank == 0 {
		if r.rawAvg == nil {
			r.rawAvg = make([]float32, w.n)
			r.alphaTmp = make([]float32, w.n)
		}
		for i := range r.rawAvg {
			r.rawAvg[i] = 0
		}
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

// barrierEx is the bucketed allgather pipeline.
type barrierEx struct {
	rooted

	// Per-bucket compressed messages, double-buffered by iteration parity:
	// Allgather returns aliases of the senders' buffers, and peers keep
	// reading iteration i's message while decompressing — but every rank
	// must finish that before it can enter iteration i+1's first barrier.
	// So by the time this rank compresses iteration i+1 into the buffer
	// last sent at i-1, no reader of that buffer remains, and the steady
	// state is allocation-free.
	msgs [2][][]byte

	// The round in progress, read by the two pipeline stages. exFn and
	// cmpFn are the stages as thunks, built once so that a round allocates
	// no closures.
	iter       int
	compressed bool
	drift      bool
	cur        int // bucket in its exchange stage
	exFn       func()
	cmpFn      func()
	exErr      error
	cmpErr     error

	// Per-bucket results, written only by the bucket's own stage.
	cmpD, exD, decD []time.Duration
	sizes           []int
	modelS          []float64
	endNs           int64
	resync          bool
}

func newBarrierEx(w *worker, cm *comm.Comm) *barrierEx {
	nb := w.bk.Count()
	e := &barrierEx{
		rooted: newRooted(w, cm),
		msgs:   [2][][]byte{make([][]byte, nb), make([][]byte, nb)},
		cmpD:   make([]time.Duration, nb),
		exD:    make([]time.Duration, nb),
		decD:   make([]time.Duration, nb),
		sizes:  make([]int, nb),
		modelS: make([]float64, nb),
	}
	e.exFn = func() { e.exErr = e.exchangeBucket(e.cur) }
	e.cmpFn = func() { e.cmpErr = e.compressBucket(e.cur + 1) }
	return e
}

func (e *barrierEx) compressBucket(b int) error {
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

// exchangeBucket allgathers bucket b's message and averages the p
// reconstructions into avg[lo:hi]; recon[lo:hi] is its decode scratch.
func (e *barrierEx) exchangeBucket(b int) error {
	w := e.w
	lo, hi := w.bk.Range(b)
	comp := w.pick(b, e.compressed)
	tEx := time.Now()
	msgs := e.ex.Allgather(e.msgs[e.iter&1][b])
	e.exD[b] = time.Since(tEx)
	w.tc.SpanTimed(trace.OpExchange, int64(e.sizes[b]), tEx, e.exD[b])
	e.endNs = w.oc.NowNs() // the last bucket's barrier is the clock anchor
	max := 0
	for _, m := range msgs {
		if len(m) > max {
			max = len(m)
		}
	}

	t0 := time.Now()
	avg, recon := w.avg[lo:hi], w.recon[lo:hi]
	for i := range avg {
		avg[i] = 0
	}
	for _, m := range msgs {
		if err := comp.DecompressInto(recon, m); err != nil {
			return fmt.Errorf("bucket %d decompress: %w", b, err)
		}
		for i, v := range recon {
			avg[i] += v
		}
	}
	inv := 1 / float32(w.p)
	for i := range avg {
		avg[i] *= inv
	}
	e.decD[b] = time.Since(t0)
	w.tc.SpanTimed(trace.OpDecompress, int64(w.p), t0, e.decD[b])
	if b == 0 && e.drift && w.gs.checkDrift(msgs, nil) {
		e.resync = true
	}
	e.modelS[b] = w.observeRound(e.sizes[b], max, e.exD[b].Seconds())
	if len(e.sizes) > 1 {
		w.tc.SpanSince(trace.OpBucket, int64(b), tEx)
	}
	return nil
}

// round runs compress(0); for b: { exchange+decompress(b) ∥ compress(b+1) }.
func (e *barrierEx) round(iter int, compressed bool) (roundStats, error) {
	w := e.w
	e.iter, e.compressed, e.resync = iter, compressed, false
	// One fingerprint per iteration, riding bucket 0's frame.
	if e.drift = w.gs.driftDue(iter); e.drift {
		w.gs.attachFingerprint(w.net, w.pick(0, compressed))
	}
	nb := len(e.sizes)
	if err := e.compressBucket(0); err != nil {
		return roundStats{}, err
	}
	for e.cur = 0; e.cur < nb; e.cur++ {
		e.cmpErr = nil
		if e.cur+1 < nb {
			parallel.Run(e.exFn, e.cmpFn)
		} else {
			e.exFn()
		}
		if e.exErr != nil {
			return roundStats{}, e.exErr
		}
		if e.cmpErr != nil {
			return roundStats{}, e.cmpErr
		}
	}
	st := roundStats{endNs: e.endNs, blamePeer: -1, resync: e.resync}
	for b := 0; b < nb; b++ {
		st.compressT += e.cmpD[b]
		st.decompressT += e.decD[b]
		st.exchangeS += e.exD[b].Seconds()
		st.modelS += e.modelS[b]
		st.msgBytes += e.sizes[b]
	}
	return st, e.measureAlpha(iter)
}

// sparseEx exchanges spatially sparsified gradients through the sparse
// allreduce.
type sparseEx struct {
	rooted
	pt *collective.Partitioner // nil: plain top-k over the whole gradient
}

func newSparseEx(w *worker, cm *comm.Comm) *sparseEx {
	e := &sparseEx{rooted: newRooted(w, cm)}
	if w.col.Partitioned {
		e.pt = collective.NewPartitioner(w.p, w.rank, w.n)
	}
	return e
}

func (e *sparseEx) round(iter int, _ bool) (roundStats, error) {
	w, tc := e.w, e.w.tc
	st := roundStats{blamePeer: -1}
	theta := w.cfg.SparseTheta
	if w.cfg.ThetaSchedule != nil {
		theta = w.theta
	}
	t0 := time.Now()
	var sp *pack.Sparse
	if e.pt != nil {
		// MiCRO-style: select only inside this rank's rotating disjoint
		// partition; everything outside banks in the partitioner's
		// residual until ownership rotates around.
		sp = e.pt.Select(w.grad, theta, iter)
	} else {
		work := append(w.grad[:0:0], w.grad...)
		sp = pack.PackMask(work, sparsify.TopKSpatial(work, theta))
	}
	st.compressT = time.Since(t0)
	tc.SpanTimed(trace.OpCompress, int64(w.n), t0, st.compressT)

	tEx := time.Now()
	reduced, moved := e.ex.SparseAllreduce(sp)
	exD := time.Since(tEx)
	st.exchangeS = exD.Seconds()
	tc.SpanTimed(trace.OpExchange, int64(moved), tEx, exD)
	st.endNs = w.oc.NowNs()

	t0 = time.Now()
	reduced.Unpack(w.avg)
	inv := 1 / float32(w.p)
	for i := range w.avg {
		w.avg[i] *= inv
	}
	st.decompressT = time.Since(t0)
	tc.SpanTimed(trace.OpDecompress, int64(w.n), t0, st.decompressT)
	// Per-rank sent volume normalized to an equivalent allgather message
	// so ratios stay comparable across exchange modes (moved is 0 on a
	// single worker).
	if w.p > 1 {
		st.msgBytes = moved / (w.p - 1)
	}
	st.modelS = w.observeRound(st.msgBytes, st.msgBytes, st.exchangeS)
	return st, e.measureAlpha(iter)
}
