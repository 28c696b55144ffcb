package dist

// The parameter-server runtime (Config.PS), the other scheme of the
// paper's Fig. 1: workers push compressed gradients to a central server,
// the server applies them to the one global model and answers with the
// parameters to pull. The paper's Background section names the trade-off
// this makes measurable: the client-server structure is simple, but the
// server's link carries p pushes in and p parameter copies out per round
// where the BSP ring spreads that volume over every link (starPrice).
//
// It is a runtime beside the barrier path and trainFault, not a link under
// the bucket pipeline: an asynchronous server applies each push as it
// arrives, so there is no round to gather. Its workers are ordinary ranks
// (newWorker, worker.gradient); the server is rank p, a worker without a
// shard whose model is the global one, whose codec decodes, whose track is
// the server track, and which closes epochs and the run through the same
// routines as rank 0 elsewhere. A synchronous server folds each round's p
// pushes in rank order through worker.average, which makes sync PS the BSP
// step bit for bit.

import (
	"fmt"
	"sync"
	"time"

	"fftgrad/internal/collective"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// PSConfig selects the parameter-server runtime.
type PSConfig struct {
	// Async applies each gradient as it arrives (stale gradients, no round
	// barrier) instead of averaging a synchronous round of p pushes.
	Async bool
}

// gradPush is one worker's gradient message to the server.
type gradPush struct {
	rank int
	msg  []byte
	loss float64
}

// psCounters account the star's inbound volume.
type psCounters struct{ pushes, bytes *telemetry.Counter }

func (c *psCounters) Instrument(r *telemetry.Registry) {
	c.pushes = r.Counter("fftgrad_ps_pushes_total", "Gradient pushes applied by the parameter server")
	c.bytes = r.Counter("fftgrad_ps_push_bytes_total", "Compressed gradient bytes pushed to the parameter server")
}

// starPrice is one round on the PS star: the server's single link carries
// p pushes of pushBytes in and p parameter copies of paramBytes out.
func starPrice(f collective.LinkFabric, p, pushBytes, paramBytes int) float64 {
	return float64(p) * (f.PointToPoint(pushBytes) + f.PointToPoint(paramBytes))
}

// trainPS is Train for Config.PS != nil. Whatever ends the run — the last
// push, Stop, or an error on either side — the server returns, the pull
// channels close, and every worker parked on one exits.
func trainPS(cfg Config) (*Result, error) {
	var ctr psCounters
	cfg.instrument(&ctr)
	p := cfg.Workers
	ranks := make([]*worker, p+1)
	for r := range ranks {
		var err error
		if ranks[r], err = newWorker(cfg, r, p, nil); err != nil {
			return nil, err
		}
	}
	// A worker has at most one push in flight and one pull pending, so no
	// send on either channel ever blocks.
	pushes := make(chan gradPush, p)
	pulls := make([]chan []float32, p)
	for r := range pulls {
		pulls[r] = make(chan []float32, 1)
	}
	failed := make(chan struct{})
	var once sync.Once
	errs := make([]error, p+1)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		cfg.spawn(&wg, r, func() {
			if errs[r] = ranks[r].push(pulls[r], pushes); errs[r] != nil {
				once.Do(func() { close(failed) })
			}
		})
	}
	srv := ranks[p]
	errs[p] = srv.serve(&ctr, pulls, pushes, failed)
	for _, c := range pulls {
		close(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	srv.res.ComputeSeconds = ranks[0].res.ComputeSeconds
	return cfg.finish(srv.res), nil
}

// push is a worker's loop: adopt the pulled parameters, compute a local
// gradient on them and push it compressed, until every iteration is done
// or the server closes the pull channel. One message buffer is enough: the
// server has decoded a push before it answers with the pull the next one
// waits for.
func (w *worker) push(pull <-chan []float32, pushes chan<- gradPush) error {
	var msg []byte
	for iter := 0; iter < w.cfg.Epochs*w.cfg.ItersPerEpoch; iter++ {
		params, ok := <-pull
		if !ok {
			return nil
		}
		w.net.SetParams(params)
		w.tc.SetIter(uint64(iter))
		loss, computeT := w.gradient()
		w.res.ComputeSeconds += computeT.Seconds()
		t0 := time.Now()
		var err error
		if msg, err = w.comps[0].AppendCompress(msg[:0], w.grad); err != nil {
			return fmt.Errorf("dist: rank %d: compress: %w", w.rank, err)
		}
		w.tc.SpanSince(trace.OpCompress, int64(len(msg)), t0)
		pushes <- gradPush{w.rank, msg, loss}
	}
	return nil
}

// serve is the server's loop: answer the initial pull, then fold pushes
// into the global model — a whole round in rank order, or each as it
// arrives under Async — answer with fresh parameters and close epochs, until
// every push is applied, Stop halts the run at an application boundary,
// decoding fails, or a worker does (failed closed). Result.Iterations
// counts pushes applied.
func (s *worker) serve(ctr *psCounters, pulls []chan []float32, pushes <-chan gradPush, failed <-chan struct{}) error {
	cfg, res, p := &s.cfg, s.res, len(pulls)
	async := cfg.PS.Async
	perEpoch := cfg.ItersPerEpoch * p
	total := cfg.Epochs * perEpoch
	// Each worker reads its own parameter view, and the server refills it
	// only after the worker's next push, sent once the view was adopted.
	views := make([][]float32, p)
	answer := func(r int) { pulls[r] <- s.net.GetParams(views[r]) }
	for r := range views {
		views[r] = make([]float32, s.n)
		answer(r)
	}
	round, ones := make([][]byte, p), make([]float32, p)
	for r := range ones {
		ones[r] = 1
	}
	var lossSum float64
	var bytes, received int
	for res.Iterations < total {
		if cfg.haltCheck(res.Iterations) {
			res.Halted = true
			break
		}
		var pu gradPush
		select {
		case pu = <-pushes:
		case <-failed:
			return nil // the worker's error is the run's
		}
		lossSum += pu.loss
		received++
		g := gathered{msgs: round, wt: ones, slowest: -1}
		if async {
			g.msgs, g.wt = append(round[:0], pu.msg), ones[:1]
		} else if round[pu.rank] = pu.msg; received%p != 0 {
			continue
		}
		epoch := res.Iterations / perEpoch
		s.sgd.LR = cfg.LR.LR(epoch)
		s.tc.SetIter(uint64(res.Iterations / p))
		t0 := time.Now()
		k, _, err := s.average(s.comps[0], 0, &g)
		if err != nil {
			return fmt.Errorf("dist: parameter server: %w", err)
		}
		s.tc.SpanSince(trace.OpDecompress, int64(k), t0)
		t0 = time.Now()
		if async {
			// One round of p asynchronous pushes moves the parameters as far
			// as one synchronous averaged step; unscaled, async training at
			// p workers runs at p times the learning rate and diverges.
			inv := 1 / float32(p)
			for i := range s.avg {
				s.avg[i] *= inv
			}
		}
		s.sgd.Step(s.net.Data(), s.avg)
		s.tc.SpanSince(trace.OpUpdate, int64(s.n), t0)
		n := 0
		for _, m := range g.msgs {
			n += len(m)
		}
		res.Iterations += k
		bytes += n
		ctr.pushes.Add(p, k)
		ctr.bytes.Add(p, n)
		if async {
			answer(pu.rank)
		} else {
			for r := range pulls {
				answer(r)
			}
		}
		if res.Iterations%perEpoch == 0 {
			s.closeEpoch(epoch, lossSum/float64(perEpoch))
			lossSum = 0
		}
	}
	if res.Iterations > 0 {
		res.AvgMsgBytes = float64(bytes) / float64(res.Iterations)
		res.CompressionRatio = float64(s.n*4) / res.AvgMsgBytes
	}
	if lf, ok := cfg.Fabric.(collective.LinkFabric); ok {
		res.CommSeconds = starPrice(lf, p, int(res.AvgMsgBytes), s.n*4) * float64(res.Iterations) / float64(p)
	}
	s.finalState(res.Iterations / p)
	return nil
}
