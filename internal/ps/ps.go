// Package ps implements Parameter-Server (PS) data-parallel training, the
// alternative parallelization scheme of the paper's Fig. 1: workers push
// (optionally compressed) gradients to a central server, the server
// updates the global parameters, and workers pull them back.
//
// The paper's Background section identifies the PS trade-off this package
// makes measurable: client-server structure gives easy fault tolerance
// and elasticity, but the server's link becomes a congestion point — at p
// workers the server moves p gradient messages in and p parameter copies
// out per iteration, where BSP's ring spreads that volume over all links.
// CongestionCost prices exactly that, and the tests compare it against
// the BSP collective costs from internal/netsim.
//
// As the second execution backend of the training service (Config.NewJob
// → dist.Job), the package carries the same runtime surface as the BSP
// path: the push/pull exchange runs through AppendCompress /
// DecompressInto with steady-state buffer reuse (no per-iteration codec
// allocations), progress streams through OnEpoch, Stop halts
// cooperatively with a final checkpoint, Resume restores one, and
// Telemetry/Tracer give a job its own metrics and timeline.
package ps

import (
	"fmt"
	"sync"
	"time"

	"fftgrad/internal/checkpoint"
	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/dist"
	"fftgrad/internal/netsim"
	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// Config describes one PS training run.
type Config struct {
	Workers       int
	Batch         int
	Epochs        int
	ItersPerEpoch int // 0 = one pass over each worker's shard
	Seed          int64

	Momentum float64
	LR       optim.LRSchedule

	Model func(seed int64) *nn.Network
	Train *data.Dataset
	Test  *data.Dataset

	// NewCompressor builds one compressor per worker for the push path
	// (pulls ship FP32 parameters, as real PS deployments do).
	NewCompressor func() compress.Compressor

	// Async applies each gradient as it arrives (stale gradients, no
	// iteration barrier) instead of synchronously averaging all p pushes.
	Async bool

	// Fabric prices the star-topology communication. Nil disables timing.
	Fabric *netsim.Profile

	// Telemetry, when non-nil, receives live metrics: push/pull counters
	// and the per-stage compression throughput gauges (the Sec. 3.3
	// terms) from every worker's compressor. A final Snapshot lands in
	// Result.Telemetry.
	Telemetry *telemetry.Registry

	// Tracer, when non-nil, records worker compute/compress spans on
	// per-worker tracks and the server's decompress/update spans on
	// track Workers (the server track). Nil keeps tracing off with zero
	// hot-path cost.
	Tracer *trace.Tracer

	// Stop, when non-nil, requests a cooperative halt once closed: the
	// server stops issuing pulls at the next application boundary,
	// captures a final checkpoint into Result.Final, and Train returns
	// with Result.Halted set — not an error.
	Stop <-chan struct{}

	// OnEpoch, when non-nil, receives each epoch's statistics as the
	// server crosses the boundary — the live progress stream of a
	// service job. Runs on the server goroutine; keep it fast.
	OnEpoch func(EpochStats)

	// Resume, when non-nil, restores the server's global parameters and
	// optimizer momentum before training starts; workers receive the
	// resumed parameters through the initial pull.
	Resume *checkpoint.State

	// CaptureFinal asks for an end-of-run checkpoint in Result.Final
	// even when the run completes normally (halted runs always capture).
	CaptureFinal bool
}

// Result aggregates a PS run.
type Result struct {
	Epochs []EpochStats

	GradSize         int
	Iterations       int // gradient pushes applied by the server
	AvgPushBytes     float64
	CompressionRatio float64

	ComputeSeconds float64 // measured across workers (sum of rank-0 share)
	CommSeconds    float64 // modeled star-topology cost

	// Halted reports that Config.Stop ended the run early.
	Halted bool
	// Final is the server's end-of-run checkpoint (always set when
	// Halted; set on completion too under CaptureFinal or Stop).
	Final *checkpoint.State
	// Telemetry is the end-of-run snapshot of Config.Telemetry (nil when
	// no registry was supplied).
	Telemetry telemetry.Snapshot
}

// EpochStats records per-epoch progress (evaluated on the server's
// global parameters).
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	TestAcc   float64
	LR        float64
}

// CongestionCost returns the modeled per-iteration communication time of
// a PS star at p workers: the server's single link carries p pushes of
// pushBytes inbound and p pulls of paramBytes outbound.
func CongestionCost(fabric netsim.Profile, p, pushBytes, paramBytes int) float64 {
	in := float64(p) * (fabric.Latency + float64(pushBytes)/fabric.Bandwidth)
	out := float64(p) * (fabric.Latency + float64(paramBytes)/fabric.Bandwidth)
	return in + out
}

type push struct {
	rank int
	msg  []byte
	loss float64
}

// Train runs PS training and returns the server's statistics.
func Train(cfg Config) (*Result, error) {
	if cfg.Model == nil || cfg.Train == nil {
		return nil, fmt.Errorf("ps: Model and Train dataset are required")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Batch < 1 {
		cfg.Batch = 32
	}
	if cfg.Epochs < 1 {
		cfg.Epochs = 1
	}
	if cfg.LR == nil {
		cfg.LR = optim.ConstLR(0.01)
	}
	if cfg.NewCompressor == nil {
		cfg.NewCompressor = func() compress.Compressor { return compress.FP32{} }
	}
	if cfg.ItersPerEpoch == 0 {
		shard := cfg.Train.Len() / cfg.Workers
		cfg.ItersPerEpoch = shard / cfg.Batch
		if cfg.ItersPerEpoch < 1 {
			cfg.ItersPerEpoch = 1
		}
	}

	p := cfg.Workers
	global := cfg.Model(cfg.Seed) // the server's authoritative parameters
	n := global.NumParams()
	sgd := optim.NewSGD(cfg.LR.LR(0), cfg.Momentum, n)
	if cfg.Resume != nil {
		if err := cfg.Resume.Apply(global, sgd); err != nil {
			return nil, fmt.Errorf("ps: resume: %w", err)
		}
	}
	serverComp := cfg.NewCompressor() // decode side on the server

	// Telemetry: a shared stage timer feeds the Sec. 3.3 gauges from
	// every worker's compressor plus the server's decode side; the push
	// counters account the star's inbound volume.
	var st *telemetry.StageTimer
	var pushCtr, pushBytesCtr *telemetry.Counter
	if cfg.Telemetry != nil {
		st = telemetry.NewStageTimer()
		st.Register(cfg.Telemetry)
		pushCtr = cfg.Telemetry.Counter("fftgrad_ps_pushes_total",
			"Gradient pushes applied by the parameter server")
		pushBytesCtr = cfg.Telemetry.Counter("fftgrad_ps_push_bytes_total",
			"Compressed gradient bytes pushed to the parameter server")
	}
	compress.Instrument(serverComp, st)

	// Server timeline track: one past the worker tracks, when the
	// tracer was sized for it (Tracks() = Workers+1 on the job path).
	var serverTC *trace.Ctx
	if cfg.Tracer != nil && cfg.Tracer.Ranks() > p {
		serverTC = cfg.Tracer.Rank(p)
	}

	pushes := make(chan push, p)
	// pulls[r] receives a fresh parameter view for worker r; closed by
	// the server on halt so parked workers exit.
	pulls := make([]chan []float32, p)
	for i := range pulls {
		pulls[i] = make(chan []float32, 1)
	}
	workerIters := cfg.Epochs * cfg.ItersPerEpoch
	totalPushes := workerIters * p

	res := &Result{GradSize: n}
	var totalPushBytes float64

	// --- server loop -----------------------------------------------------
	var serverWG sync.WaitGroup
	serverWG.Add(1)
	serverErr := make(chan error, 1)
	go func() {
		defer serverWG.Done()
		grad := make([]float32, n)
		accum := make([]float32, n)
		delta := make([]float32, n)
		var lossSum float64
		var lossCount int
		pending := 0
		applied := 0

		// Parameter-view buffers, reused across rounds. Sync mode shares
		// one: the server refills it only after receiving all p pushes of
		// the round, and each push happens-after its sender finished
		// SetParams on the previous view — so no worker can still be
		// reading. Async mode replies per worker, so each worker gets its
		// own buffer with the same happens-before argument.
		syncView := make([]float32, n)
		var asyncViews [][]float32
		if cfg.Async {
			asyncViews = make([][]float32, p)
			for r := range asyncViews {
				asyncViews[r] = make([]float32, n)
			}
		}
		view := func(r int) []float32 {
			if cfg.Async {
				return global.GetParams(asyncViews[r])
			}
			return syncView
		}

		// halt drains the run cooperatively: stop issuing pulls, close
		// them so parked workers exit, and let wg.Wait collect everyone.
		halted := false
		haltDue := func() bool {
			if cfg.Stop == nil {
				return false
			}
			select {
			case <-cfg.Stop:
				return true
			default:
				return false
			}
		}

		// Initial pull for everyone.
		global.GetParams(syncView)
		for r := 0; r < p; r++ {
			pulls[r] <- view(r)
		}

		for applied < totalPushes {
			pu := <-pushes
			totalPushBytes += float64(len(pu.msg))
			pushCtr.Inc(pu.rank)
			pushBytesCtr.Add(pu.rank, len(pu.msg))
			if serverTC != nil {
				serverTC.SetIter(uint64(applied))
			}
			t0 := time.Now()
			if err := serverComp.DecompressInto(grad, pu.msg); err != nil {
				serverErr <- fmt.Errorf("ps: server decompress: %w", err)
				return
			}
			serverTC.SpanSince(trace.OpDecompress, int64(len(pu.msg)), t0)
			lossSum += pu.loss
			lossCount++
			applied++
			epoch := (applied - 1) / (cfg.ItersPerEpoch * p)
			sgd.LR = cfg.LR.LR(epoch)

			if cfg.Async {
				// Apply immediately (stale gradient), reply with fresh
				// params. The contribution is scaled by 1/p so one round
				// of p asynchronous pushes moves the parameters as far as
				// one synchronous averaged step — without this, async
				// training at p workers runs at an effective learning
				// rate p times too large and diverges.
				t0 = time.Now()
				inv := 1 / float32(p)
				for i := range grad {
					grad[i] *= inv
				}
				sgd.Delta(delta, grad)
				global.AddToParams(delta)
				serverTC.SpanSince(trace.OpUpdate, int64(n), t0)
				if haltDue() {
					halted = true
					break
				}
				pulls[pu.rank] <- view(pu.rank)
			} else {
				for i, v := range grad {
					accum[i] += v
				}
				pending++
				if pending == p {
					t0 = time.Now()
					inv := 1 / float32(p)
					for i := range accum {
						accum[i] *= inv
					}
					sgd.Delta(delta, accum)
					global.AddToParams(delta)
					for i := range accum {
						accum[i] = 0
					}
					pending = 0
					serverTC.SpanSince(trace.OpUpdate, int64(n), t0)
					if haltDue() {
						halted = true
						break
					}
					global.GetParams(syncView)
					for r := 0; r < p; r++ {
						pulls[r] <- view(r)
					}
				}
			}

			// Epoch bookkeeping on the server.
			if applied%(cfg.ItersPerEpoch*p) == 0 {
				stats := EpochStats{
					Epoch:     epoch,
					TrainLoss: lossSum / float64(lossCount),
					LR:        sgd.LR,
				}
				lossSum, lossCount = 0, 0
				if cfg.Test != nil {
					stats.TestAcc = dist.Evaluate(global, cfg.Test, cfg.Batch)
				}
				res.Epochs = append(res.Epochs, stats)
				if cfg.OnEpoch != nil {
					cfg.OnEpoch(stats)
				}
			}
		}
		res.Iterations = applied
		res.Halted = halted
		if halted {
			// Release workers parked on their pull; in-flight pushes of
			// the abandoned round sit in the buffered channel and are
			// simply never applied.
			for r := range pulls {
				close(pulls[r])
			}
		}
		if halted || cfg.CaptureFinal || cfg.Stop != nil {
			e := int64(applied) / int64(cfg.ItersPerEpoch*p)
			res.Final = checkpoint.Capture(global, sgd, e, int64(applied-1))
		}
	}()

	// --- workers ----------------------------------------------------------
	var wg sync.WaitGroup
	workerErrs := make([]error, p)
	var computeMu sync.Mutex
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			replica := cfg.Model(cfg.Seed)
			shard := cfg.Train.Shard(rank, p)
			it := data.NewIterator(shard.Len(), cfg.Batch, cfg.Seed+int64(rank)*104729)
			comp := cfg.NewCompressor()
			compress.Instrument(comp, st)
			tc := cfg.Tracer.Rank(rank)
			grad := make([]float32, n)
			loss := nn.SoftmaxCE{}
			// The push message is double-use-safe with a single buffer:
			// the server decompresses push i before it replies with the
			// pull this worker blocks on, so by the time iteration i+1
			// compresses into the same buffer no reader remains.
			var msgBuf []byte

			for iter := 0; iter < workerIters; iter++ {
				params, ok := <-pulls[rank]
				if !ok {
					return // server halted the run
				}
				replica.SetParams(params)
				tc.SetIter(uint64(iter))

				t0 := time.Now()
				x, labels := shard.Batch(it.Next())
				replica.ZeroGrads()
				logits := replica.Forward(x, true)
				l, dl := loss.Loss(logits, labels)
				replica.Backward(dl)
				replica.FlattenGrads(grad)
				el := time.Since(t0)
				tc.SpanTimed(trace.OpCompute, int64(cfg.Batch), t0, el)
				if rank == 0 {
					computeMu.Lock()
					res.ComputeSeconds += el.Seconds()
					computeMu.Unlock()
				}

				t0 = time.Now()
				msg, err := comp.AppendCompress(msgBuf[:0], grad)
				if err != nil {
					workerErrs[rank] = err
					return
				}
				msgBuf = msg
				tc.SpanSince(trace.OpCompress, int64(len(msg)), t0)
				pushes <- push{rank: rank, msg: msg, loss: l}
				if !cfg.Async && iter == workerIters-1 {
					// The final synchronous broadcast is consumed nowhere;
					// drain it so the server can exit cleanly.
					defer func() { <-pulls[rank] }()
				}
			}
		}(rank)
	}
	wg.Wait()
	serverWG.Wait()
	select {
	case err := <-serverErr:
		return nil, err
	default:
	}
	for _, err := range workerErrs {
		if err != nil {
			return nil, err
		}
	}

	if res.Iterations > 0 {
		res.AvgPushBytes = totalPushBytes / float64(res.Iterations)
		res.CompressionRatio = float64(n*4) / res.AvgPushBytes
	}
	if cfg.Fabric != nil {
		perIter := CongestionCost(*cfg.Fabric, p, int(res.AvgPushBytes), n*4)
		res.CommSeconds = perIter * float64(res.Iterations) / float64(p)
	}
	if cfg.Telemetry != nil {
		res.Telemetry = cfg.Telemetry.Snapshot()
	}
	return res, nil
}
