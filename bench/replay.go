package main

// The traced replay: one BSP training step re-expressed as a sequence of
// public layer calls with a span around each. The program itself carries
// no spans from this benchmark, so the per-layer numbers come from here.
// The arithmetic is dist.Train's, call for call, which the block losses
// prove: they must equal Train's bit for bit on the barrier workloads.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"fftgrad/internal/checkpoint"
	"fftgrad/internal/cluster"
	"fftgrad/internal/collective"
	"fftgrad/internal/comm"
	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/guard"
	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
	"fftgrad/internal/parallel"
)

// Span names. A layer metric sums the self time of one or more of these.
const (
	spIter      = "dist.iteration"
	spBatch     = "data.batch"
	spFwdBwd    = "nn.fwd_bwd"
	spScrub     = "guard.scrub"
	spDetect    = "guard.detect"
	spFP        = "guard.fingerprint"
	spFrame     = "guard.frame"  // Framed.AppendCompress; self = header + CRC
	spVerify    = "guard.verify" // Framed.DecompressInto; self = unframe + CRC check
	spEncode    = "compress.encode"
	spDecode    = "compress.decode"
	spAverage   = "compress.average"
	spAllgather = "collective.allgather"
	spCluster   = "cluster.exchange"
	spStep      = "optim.step"
	spSync      = "dist.sync"
	spCapture   = "checkpoint.capture"
)

// spanCodec records a span around every call into the wrapped codec. It
// sits inside guard.Framed on guarded workloads, so the frame span's
// self time is the framing cost alone.
type spanCodec struct {
	inner compress.Compressor
	tr    *track
	// parent is the span the next codec call belongs to; the owning
	// goroutine sets it before calling through.
	parent int
}

func (c *spanCodec) Name() string { return c.inner.Name() }

func (c *spanCodec) Compress(grad []float32) ([]byte, error) { return c.AppendCompress(nil, grad) }

func (c *spanCodec) Decompress(dst []float32, msg []byte) error { return c.DecompressInto(dst, msg) }

func (c *spanCodec) AppendCompress(dst []byte, grad []float32) ([]byte, error) {
	s := c.tr.begin(spEncode, c.parent)
	out, err := compress.AppendCompress(c.inner, dst, grad)
	c.tr.end(s)
	return out, err
}

func (c *spanCodec) DecompressInto(dst []float32, msg []byte) error {
	s := c.tr.begin(spDecode, c.parent)
	err := compress.DecompressInto(c.inner, dst, msg)
	c.tr.end(s)
	return err
}

// wireCodec is one codec as it appears on the wire: the span-recording
// codec, guard-framed when the workload is guarded.
type wireCodec struct {
	sc     *spanCodec
	framed *guard.Framed // nil when unguarded
}

func newWireCodec(inner compress.Compressor, tr *track, g *guard.Config) *wireCodec {
	wc := &wireCodec{sc: &spanCodec{inner: inner, tr: tr}}
	if g != nil && g.Framing() {
		wc.framed = guard.NewFramed(wc.sc, g.CRC)
	}
	return wc
}

func (wc *wireCodec) encode(parent int, dst []byte, grad []float32) ([]byte, error) {
	if wc.framed == nil {
		wc.sc.parent = parent
		return wc.sc.AppendCompress(dst, grad)
	}
	s := wc.sc.tr.begin(spFrame, parent)
	wc.sc.parent = s
	out, err := wc.framed.AppendCompress(dst, grad)
	wc.sc.tr.end(s)
	return out, err
}

func (wc *wireCodec) decode(parent int, dst []float32, msg []byte) error {
	if wc.framed == nil {
		wc.sc.parent = parent
		return wc.sc.DecompressInto(dst, msg)
	}
	s := wc.sc.tr.begin(spVerify, parent)
	wc.sc.parent = s
	err := wc.framed.DecompressInto(dst, msg)
	wc.sc.tr.end(s)
	return err
}

// replayResult is what the traced replay observed.
type replayResult struct {
	Tracks    []*track
	BlockLoss []float64 // rank-0 loss per block, warm-up included
	MsgBytes  float64   // mean rank-0 message bytes per iteration
	Cluster   cluster.Stats
	Grad      []float32 // rank-0 raw gradient at iteration captureIter
}

// replayShared is the state the ranks of one replay share.
type replayShared struct {
	w     workload
	seed  int64
	iters int
	train *data.Dataset
	guard *guard.Config // defaulted; nil when unguarded
	epoch time.Time

	cl *comm.Cluster    // barrier path
	rt *cluster.Runtime // fault path

	captureIter int // -1: none
}

// runReplay replays blocks blocks of w at P = ranks with a span around
// every layer call. captureIter >= 0 additionally copies rank 0's raw
// gradient of that iteration.
func runReplay(w workload, seed int64, blocks int, train *data.Dataset, captureIter int) (*replayResult, error) {
	if w.fault && w.bucket > 0 {
		return nil, errors.New("replay: the bucketed fault path is not part of any workload")
	}
	sh := &replayShared{w: w, seed: seed, iters: blocks * blockIters, train: train, epoch: time.Now(), captureIter: captureIter}
	if w.guarded {
		g := guardConfig().WithDefaults()
		sh.guard = &g
	}
	res := &replayResult{Tracks: make([]*track, ranks)}
	for r := range res.Tracks {
		res.Tracks[r] = newTrack(sh.epoch, sh.iters*64)
	}

	var members []*cluster.Member
	if w.fault {
		clCfg := cluster.Config{Seed: seed}
		if sh.guard != nil && sh.guard.Framing() {
			// The cluster receiver also checks every inbound frame. That
			// runs on its own goroutine inside the runtime and is part of
			// the cluster layer's time; no span can be put around it from
			// out here.
			clCfg.Verify = guard.Verify
		}
		mesh := comm.NewMesh(ranks)
		sh.rt = cluster.New(ranks, clCfg)
		members = make([]*cluster.Member, ranks)
		for r := 0; r < ranks; r++ {
			members[r] = sh.rt.Join(mesh.Endpoint(r))
		}
	} else {
		sh.cl = comm.NewCluster(ranks)
	}

	errs := make([]error, ranks)
	outs := make([]*rankState, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var m *cluster.Member
			if members != nil {
				m = members[r]
			}
			outs[r], errs[r] = sh.runRank(r, res.Tracks[r], m)
			if errs[r] != nil && m != nil {
				m.Close() // go silent so the survivor suspects instead of waiting
			}
		}(r)
	}
	wg.Wait()
	for _, m := range members {
		m.Close()
	}
	if sh.rt != nil {
		res.Cluster = sh.rt.Stats()
	}
	for r, err := range errs {
		if err != nil {
			return res, fmt.Errorf("replay rank %d: %w", r, err)
		}
	}
	res.BlockLoss = outs[0].blockLoss
	res.MsgBytes = outs[0].msgBytes / float64(sh.iters)
	res.Grad = outs[0].captured
	return res, nil
}

// rankState is one rank's model, optimizer, buffers and codecs.
type rankState struct {
	sh   *replayShared
	rank int
	tr   *track

	net   *nn.Network
	sgd   *optim.SGD
	shard *data.Dataset
	it    *data.Iterator
	grad  []float32
	avg   []float32
	recon []float32
	delta []float32

	comp *wireCodec          // monolithic gradient codec
	wire compress.Compressor // FP32 codec of the parameter sync, framed when guarded

	ex   *collective.Exchanger // barrier path
	m    *cluster.Member       // fault path
	view cluster.View

	// Monolithic barrier messages are double-buffered by iteration
	// parity: Allgather returns aliases of the senders' buffers, and a
	// peer may still be decoding iteration i's message when this rank
	// compresses iteration i+1 (dist.runWorker has the full argument).
	msgBufs [2][]byte

	bk    collective.Buckets
	comps []*wireCodec // per-bucket codecs
	bmsgs [2][][]byte

	det       *guard.Detector
	ring      []*checkpoint.State // rollback ring, as dist retains it
	fpFlat    []float32
	ownFP     uint64
	forceSync bool

	syncFlat    []float32
	syncPayload []byte

	// What the rank observed.
	lossSum   float64
	lossCount int
	blockLoss []float64 // loss per block
	msgBytes  float64   // message bytes, summed over iterations
	captured  []float32 // rank 0's raw gradient at sh.captureIter
}

// runRank builds rank's state as dist's worker does and runs its
// iterations.
func (sh *replayShared) runRank(rank int, tr *track, m *cluster.Member) (*rankState, error) {
	w := sh.w
	rs := &rankState{sh: sh, rank: rank, tr: tr, m: m}
	rs.net = w.model(sh.seed)
	n := rs.net.NumParams()
	rs.shard = sh.train.Shard(rank, ranks)
	rs.it = data.NewIterator(rs.shard.Len(), w.batch, sh.seed+int64(rank)*7919)
	rs.sgd = optim.NewSGD(w.lr, momentum, n)
	rs.grad = make([]float32, n)
	rs.avg = make([]float32, n)
	rs.recon = make([]float32, n)
	rs.delta = make([]float32, n)
	rs.syncFlat = make([]float32, n)
	rs.wire = compress.FP32{}
	if g := sh.guard; g != nil && g.Framing() {
		rs.wire = guard.NewFramed(compress.FP32{}, g.CRC)
	}

	if sh.cl != nil {
		var col *collective.Config
		if w.bucket > 0 {
			col = &collective.Config{Strategy: collective.Ring, BucketBytes: w.bucket}
		}
		rs.ex = collective.New(col, sh.cl.Rank(rank))
	}
	if w.bucket > 0 {
		rs.bk = collective.MakeBuckets(n, w.bucket)
		nb := rs.bk.Count()
		rs.comps = make([]*wireCodec, nb)
		for b := range rs.comps {
			rs.comps[b] = newWireCodec(w.codec(), tr, sh.guard)
		}
		rs.bmsgs[0] = make([][]byte, nb)
		rs.bmsgs[1] = make([][]byte, nb)
	} else {
		rs.comp = newWireCodec(w.codec(), tr, sh.guard)
	}
	if g := sh.guard; g != nil {
		if g.Detect {
			rs.det = guard.NewDetector(*g)
			rs.ring = append(rs.ring, checkpoint.Capture(rs.net, rs.sgd, 0, -1))
		}
		if g.DriftEvery > 0 {
			rs.fpFlat = make([]float32, n)
		}
	}
	if m != nil && rank == 0 {
		sh.rt.PublishCheckpoint(checkpoint.Capture(rs.net, rs.sgd, 0, 0), 0)
	}

	for iter := 0; iter < sh.iters; iter++ {
		if err := rs.iteration(iter); err != nil {
			return nil, fmt.Errorf("iteration %d: %w", iter, err)
		}
	}
	tr.iter.Store(-1)
	return rs, nil
}

// iteration is one training step: dist.runWorker's loop body (and
// runWorkerFault's), call for call, with a span around each layer call.
func (rs *rankState) iteration(iter int) error {
	sh, tr := rs.sh, rs.tr
	tr.iter.Store(int64(iter))
	root := tr.begin(spIter, -1)
	defer tr.end(root)

	s := tr.begin(spBatch, root)
	x, labels := rs.shard.Batch(rs.it.Next())
	tr.end(s)

	s = tr.begin(spFwdBwd, root)
	rs.net.ZeroGrads()
	logits := rs.net.Forward(x, true)
	l, dl := nn.SoftmaxCE{}.Loss(logits, labels)
	rs.net.Backward(dl)
	rs.net.FlattenGrads(rs.grad)
	tr.end(s)
	rs.lossSum += l
	rs.lossCount++
	if rs.rank == 0 && iter == sh.captureIter {
		rs.captured = append([]float32(nil), rs.grad...)
	}

	rs.scrub(root)
	drift := rs.driftDue(iter)
	if drift {
		rs.attachFingerprint(root)
	}

	var msgBytes int
	var err error
	switch {
	case rs.m != nil:
		msgBytes, err = rs.exchangeFault(root, iter, drift)
	case sh.w.bucket > 0:
		msgBytes, err = rs.exchangeBuckets(root, iter, drift)
	default:
		msgBytes, err = rs.exchangeBarrier(root, iter, drift)
	}
	if err != nil {
		return err
	}
	rs.msgBytes += float64(msgBytes)

	action, err := rs.observe(root)
	if err != nil {
		return err
	}
	if action != guard.ActionSkip {
		s = tr.begin(spStep, root)
		rs.sgd.Delta(rs.delta, rs.avg)
		rs.net.AddToParams(rs.delta)
		tr.end(s)
	}

	if (iter+1)%syncEvery == 0 || rs.forceSync {
		if err := rs.syncParams(root, iter); err != nil {
			return fmt.Errorf("sync: %w", err)
		}
		rs.forceSync = false
	}

	block := iter / blockIters
	if (iter+1)%blockIters == 0 {
		rs.blockLoss = append(rs.blockLoss, rs.lossSum/float64(rs.lossCount))
		rs.lossSum, rs.lossCount = 0, 0
		// The fault path publishes the rejoin checkpoint at every block
		// boundary: training is stalled while it is captured.
		if rs.m != nil && rs.rank == rs.view.LowestAlive() {
			s = tr.begin(spCapture, root)
			sh.rt.PublishCheckpoint(checkpoint.Capture(rs.net, rs.sgd, int64(block), int64(iter)), uint64(iter+1))
			tr.end(s)
		}
	}
	// The guard's rollback ring, retained as dist retains it so the
	// captures cost what they cost there. The replay never rolls back.
	if rs.det != nil && (iter+1)%sh.guard.RetainEvery == 0 {
		s = tr.begin(spCapture, root)
		rs.ring = append(rs.ring, checkpoint.Capture(rs.net, rs.sgd, int64(block), int64(iter)))
		if len(rs.ring) > sh.guard.RetainK {
			rs.ring = rs.ring[1:]
		}
		tr.end(s)
	}
	return nil
}

func (rs *rankState) scrub(parent int) {
	g := rs.sh.guard
	if g == nil || g.Scrub == guard.ScrubOff {
		return
	}
	s := rs.tr.begin(spScrub, parent)
	if _, skip := guard.Scrub(rs.grad, g.Scrub, g.ClampLimit); skip {
		for i := range rs.grad {
			rs.grad[i] = 0
		}
	}
	rs.tr.end(s)
}

func (rs *rankState) driftDue(iter int) bool {
	g := rs.sh.guard
	return g != nil && g.DriftEvery > 0 && iter > 0 && iter%g.DriftEvery == 0
}

// attachFingerprint rides the parameter fingerprint on this iteration's
// outgoing frame (bucket 0's when bucketed).
func (rs *rankState) attachFingerprint(parent int) {
	wc := rs.comp
	if wc == nil {
		wc = rs.comps[0]
	}
	if wc.framed == nil {
		return
	}
	s := rs.tr.begin(spFP, parent)
	rs.ownFP = guard.Fingerprint(rs.net.GetParams(rs.fpFlat))
	wc.framed.SetNextFingerprint(rs.ownFP)
	rs.tr.end(s)
}

// checkDrift compares the peers' fingerprints with this rank's own.
func (rs *rankState) checkDrift(msgs [][]byte, stale []bool) bool {
	for j, m := range msgs {
		if m == nil || (stale != nil && stale[j]) {
			continue
		}
		if fp, ok := guard.PeekFingerprint(m); ok && fp != rs.ownFP {
			return true
		}
	}
	return false
}

// accumulate decodes every non-nil message into avg and scales by the
// contributor count — dist's decompress + average step.
func (rs *rankState) accumulate(parent int, wc *wireCodec, msgs [][]byte, avg, recon []float32) error {
	s := rs.tr.begin(spAverage, parent)
	defer rs.tr.end(s)
	for i := range avg {
		avg[i] = 0
	}
	var contributors float32
	for _, m := range msgs {
		if m == nil {
			continue
		}
		if err := wc.decode(s, recon, m); err != nil {
			return err
		}
		for i, v := range recon {
			avg[i] += v
		}
		contributors++
	}
	inv := 1 / contributors
	for i := range avg {
		avg[i] *= inv
	}
	return nil
}

func (rs *rankState) exchangeBarrier(parent, iter int, drift bool) (int, error) {
	msg, err := rs.comp.encode(parent, rs.msgBufs[iter&1][:0], rs.grad)
	if err != nil {
		return 0, err
	}
	rs.msgBufs[iter&1] = msg

	s := rs.tr.begin(spAllgather, parent)
	msgs := rs.ex.Allgather(msg)
	rs.tr.end(s)

	if err := rs.accumulate(parent, rs.comp, msgs, rs.avg, rs.recon); err != nil {
		return 0, err
	}
	if drift && rs.checkDrift(msgs, nil) {
		rs.forceSync = true
	}
	return len(msg), nil
}

// exchangeBuckets is dist's bucketed pipeline: compress(0), then for
// every bucket b exchange+decode(b) runs beside compress(b+1).
func (rs *rankState) exchangeBuckets(parent, iter int, drift bool) (int, error) {
	nb := rs.bk.Count()
	parity := iter & 1
	sizes := make([]int, nb)

	compressBucket := func(b int) error {
		lo, hi := rs.bk.Range(b)
		msg, err := rs.comps[b].encode(parent, rs.bmsgs[parity][b][:0], rs.grad[lo:hi])
		if err != nil {
			return fmt.Errorf("bucket %d compress: %w", b, err)
		}
		rs.bmsgs[parity][b] = msg
		sizes[b] = len(msg)
		return nil
	}
	exchangeBucket := func(b int) error {
		lo, hi := rs.bk.Range(b)
		s := rs.tr.begin(spAllgather, parent)
		msgs := rs.ex.Allgather(rs.bmsgs[parity][b])
		rs.tr.end(s)
		if err := rs.accumulate(parent, rs.comps[b], msgs, rs.avg[lo:hi], rs.recon[lo:hi]); err != nil {
			return fmt.Errorf("bucket %d decompress: %w", b, err)
		}
		if b == 0 && drift && rs.checkDrift(msgs, nil) {
			rs.forceSync = true
		}
		return nil
	}

	if err := compressBucket(0); err != nil {
		return 0, err
	}
	for b := 0; b < nb; b++ {
		var exErr, cmpErr error
		if b+1 < nb {
			parallel.Run(
				func() { exErr = exchangeBucket(b) },
				func() { cmpErr = compressBucket(b + 1) },
			)
		} else {
			exErr = exchangeBucket(b)
		}
		if err := errors.Join(exErr, cmpErr); err != nil {
			return 0, err
		}
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	return total, nil
}

func (rs *rankState) exchangeFault(parent, iter int, drift bool) (int, error) {
	// The mesh copies sends, so one buffer suffices.
	msg, err := rs.comp.encode(parent, rs.msgBufs[0][:0], rs.grad)
	if err != nil {
		return 0, err
	}
	rs.msgBufs[0] = msg

	s := rs.tr.begin(spCluster, parent)
	ex, err := rs.m.Exchange(uint64(iter), msg)
	rs.tr.end(s)
	if err != nil {
		return 0, err
	}
	if ex.Degraded {
		return 0, fmt.Errorf("degraded exchange with %d contributors", ex.Contributors)
	}
	if err := rs.accumulate(parent, rs.comp, ex.Msgs, rs.avg, rs.recon); err != nil {
		return 0, err
	}
	if (drift && rs.checkDrift(ex.Msgs, ex.Stale)) || ex.EpochChanged {
		rs.forceSync = true
	}
	rs.view = ex.View
	return len(msg), nil
}

// observe feeds the post-average norm to the anomaly detector and
// applies a clip in place, as dist's guard glue does. A rollback is not
// replayed: a healthy workload never reaches that rung.
func (rs *rankState) observe(parent int) (guard.Action, error) {
	if rs.det == nil {
		return guard.ActionNone, nil
	}
	s := rs.tr.begin(spDetect, parent)
	defer rs.tr.end(s)
	var sum float64
	for _, v := range rs.avg {
		sum += float64(v) * float64(v)
	}
	action, scale := rs.det.Observe(math.Sqrt(sum))
	switch action {
	case guard.ActionClip:
		f := float32(scale)
		for i := range rs.avg {
			rs.avg[i] *= f
		}
	case guard.ActionRollback:
		return action, errors.New("guard escalated to rollback")
	}
	return action, nil
}

// syncParams is the periodic parameter re-broadcast from the root.
func (rs *rankState) syncParams(parent, iter int) error {
	s := rs.tr.begin(spSync, parent)
	defer rs.tr.end(s)
	root := 0
	if rs.m != nil {
		if root = rs.view.LowestAlive(); root < 0 {
			return nil
		}
	}
	var payload []byte
	if rs.rank == root {
		flat := rs.net.GetParams(rs.syncFlat)
		var err error
		if payload, err = compress.AppendCompress(rs.wire, rs.syncPayload[:0], flat); err != nil {
			return err
		}
		rs.syncPayload = payload
	}
	var got []byte
	if rs.m != nil {
		var ok bool
		var err error
		if got, ok, err = rs.m.SyncBroadcast(uint64(iter+1), payload, root); err != nil {
			return err
		}
		if !ok {
			return errors.New("parameter sync abandoned")
		}
	} else {
		got = rs.ex.Broadcast(payload, root)
	}
	if rs.rank != root {
		if err := compress.DecompressInto(rs.wire, rs.syncFlat, got); err != nil {
			return err
		}
		rs.net.SetParams(rs.syncFlat)
	}
	return nil
}
