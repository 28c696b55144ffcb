// Package dist implements Bulk Synchronous Parallel data-parallel SGD
// with pluggable gradient compression — the training harness of the
// paper's evaluation (Sec. 4).
//
// Per iteration, every worker: computes a local sub-gradient on its data
// shard, linearizes it, compresses it, allgathers everyone's compressed
// messages (the paper uses allgather for *all* algorithms, including the
// lossless baseline, because sparse allreduce does not exist in MPI/NCCL),
// decompresses and averages all p messages, and applies an identical SGD
// update. Parameters are re-broadcast from rank 0 every SyncEvery
// iterations to eliminate floating-point drift.
//
// Compute and compression are measured on the actual CPU; communication is
// priced through a netsim fabric model at the real message sizes — the
// substitution that stands in for the paper's 8-GPU InfiniBand testbed
// (see DESIGN.md).
//
// Train has three runtimes under one Config and one Result: the barrier
// path above, the failure-aware mesh (Config.Fault, fault.go) and the
// parameter server of the paper's Fig. 1 (Config.PS, ps.go).
package dist

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"fftgrad/internal/adapt"
	"fftgrad/internal/checkpoint"
	"fftgrad/internal/collective"
	"fftgrad/internal/comm"
	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/guard"
	"fftgrad/internal/nn"
	"fftgrad/internal/obs"
	"fftgrad/internal/optim"
	"fftgrad/internal/sparsify"
	"fftgrad/internal/telemetry"
	"fftgrad/internal/trace"
)

// Fabric prices collectives; netsim.Profile and netsim.Hierarchical both
// satisfy it.
type Fabric = collective.Fabric

// Config describes one distributed training run.
type Config struct {
	Workers       int
	Batch         int // per-worker batch size
	Epochs        int
	ItersPerEpoch int // 0 = one pass over each worker's shard
	Seed          int64

	Momentum float64 // 0 means no momentum; the paper uses 0.9
	LR       optim.LRSchedule

	// ThetaSchedule, when non-nil, drives the drop ratio of compressors
	// implementing compress.ThetaSetter at every epoch boundary.
	ThetaSchedule sparsify.Schedule

	// SyncEvery is the parameter re-broadcast period in iterations
	// (default 10, as in the paper).
	SyncEvery int

	Model func(seed int64) *nn.Network
	Train *data.Dataset
	Test  *data.Dataset

	// NewCompressor builds one compressor instance per worker.
	NewCompressor func() compress.Compressor

	// Fabric prices communication. Nil disables the timing model.
	Fabric Fabric

	// Collective selects the exchange strategy (ring, hierarchical or
	// binomial tree) and gradient bucketing with compute/comm overlap.
	// Nil keeps the flat ring exchange. On the barrier path the strategy
	// reschedules the real collectives; on the Fault path the
	// point-to-point mesh keeps per-peer delivery and the strategy prices
	// the modeled collectives only, while bucketing still splits the
	// exchange into per-bucket rounds (see DESIGN.md Sec. 12).
	Collective *collective.Config

	// Telemetry, when non-nil, receives live metrics for the run:
	// bytes-on-wire counters on the in-process transport, per-stage
	// pipeline throughput gauges (the Sec. 3.3 Tm/Tf/Tp/Ts terms), and —
	// when Adapt is set — the controller's decision gauges. A final
	// Snapshot lands in Result.Telemetry. All hot-path updates are
	// atomics; exposition is cold.
	Telemetry *telemetry.Registry

	// Adapt, when non-nil, is consulted every iteration: the controller
	// folds the live-measured stage throughputs and the effective
	// exchange rate into the Sec. 3.3 model and may bypass compression
	// to FP32 when no ratio is beneficial (re-enabling when the model
	// flips back), and may suggest θ adjustments (composing with
	// ThetaSchedule, which still runs first).
	Adapt *adapt.Controller

	// stageTimer is the shared per-stage timer threaded into every
	// worker's compressor and the exchange loop; derived from Adapt or
	// Telemetry in Train.
	stageTimer *telemetry.StageTimer

	// MeasureAlpha additionally allgathers raw FP32 gradients each
	// iteration (excluded from timing) to measure the Assumption 3.2
	// constant α = ‖v̄−v̂̄‖/‖v̄‖ (Fig. 12).
	MeasureAlpha bool

	// SampleGradients, when > 0, stores rank-0's raw flat gradient every
	// SampleGradients iterations (for the histogram experiments).
	SampleGradients int

	// Tracer, when non-nil, records the full iteration lifecycle on
	// per-rank timeline tracks (internal/trace): compute, scrub, the
	// compressor's internal stage spans, exchange with per-peer sub-spans
	// on the cluster path, decompress, update and sync, plus cluster and
	// guard incidents as instant markers. Nil keeps tracing off with zero
	// hot-path cost — the barrier path's output is bit-identical either
	// way.
	Tracer *trace.Tracer

	// Flight, when non-nil, dumps Tracer's last-N-iteration timeline to
	// disk the moment a guard rollback, quorum loss, chaos crash window
	// or worker panic fires (see trace.FlightRecorder).
	Flight *trace.FlightRecorder

	// Profiler, when non-nil, receives one obs.IterRecord per rank per
	// iteration — the cross-rank iteration profiler (internal/obs): clock
	// alignment for merged timelines, per-iteration critical paths with
	// the straggler blame ledger, and the EWMA anomaly engine. The only
	// hot-path touch is RankCtx.Commit (zero allocations); training output
	// is bit-identical with or without it. On the Fault path the committed
	// records carry the cluster's in-exchange straggler attribution
	// (ExchangeResult.SlowestPeer/WaitNs).
	Profiler *obs.Profiler

	// Resume, when non-nil, restores parameters and optimizer momentum on
	// every worker before training starts (kill-and-resume).
	Resume *checkpoint.State

	// Stop, when non-nil, requests a cooperative halt once closed: the
	// first rank to observe it proposes the next iteration boundary as
	// the halt point, every rank stops there in agreement (see haltCheck
	// for why the vote cannot deadlock the collectives), rank 0 captures
	// a final checkpoint into Result.Final, and Train returns with
	// Result.Halted set — not an error. This is how the job service
	// cancels and drains running jobs.
	Stop <-chan struct{}

	// OnEpoch, when non-nil, is invoked on rank 0 at every epoch
	// boundary with that epoch's statistics — the live progress stream
	// of a service job. Runs on the worker goroutine; keep it fast.
	OnEpoch func(EpochStats)

	// haltAt is the agreed halt boundary (MaxUint64 = none); allocated
	// in withDefaults when Stop is set, shared by every worker.
	haltAt *atomic.Uint64

	// Fault, when non-nil, routes the gradient exchange through the
	// failure-aware cluster runtime (internal/cluster) instead of the
	// barrier-based collectives: heartbeats, bounded retry, straggler
	// and dead-rank degradation policies, and checkpoint-based rejoin.
	// Optionally injects a deterministic chaos schedule. Mutually
	// exclusive with MeasureAlpha.
	Fault *FaultConfig

	// PS, when non-nil, trains on the parameter-server runtime instead
	// (ps.go): workers push compressed gradients to a central server that
	// owns the global model, the other scheme of the paper's Fig. 1. It
	// excludes every BSP exchange option (Fault, Collective, Guard, Adapt,
	// ThetaSchedule, MeasureAlpha); a Fabric that prices single links
	// (collective.LinkFabric) prices the star.
	PS *PSConfig

	// Guard, when non-nil and enabled, activates the data-plane
	// integrity layer (internal/guard): CRC32C wire framing (rejected
	// before decompression, repaired via nack/resend under Fault),
	// pre-compress NaN/Inf scrubbing, the EWMA gradient-norm anomaly
	// detector with its clip → skip → rollback escalation, and periodic
	// cross-rank parameter-fingerprint drift detection with forced
	// re-sync. The same Config must reach every rank (it defines the
	// wire format); with healthy gradients the guards are bit-exact
	// pure overhead.
	Guard *guard.Config

	// guardStats is the run-wide shared guard accounting; created in
	// withDefaults when Guard is enabled.
	guardStats *guard.Stats
}

// EpochStats records per-epoch training progress.
type EpochStats struct {
	Epoch     int
	TrainLoss float64 // mean rank-0 shard loss over the epoch
	TestAcc   float64 // top-1 accuracy on the test set (rank 0)
	Theta     float64 // drop ratio in effect
	LR        float64
}

// Result aggregates a full run.
type Result struct {
	Epochs      []EpochStats
	Alpha       []float64   // per-iteration α when MeasureAlpha
	GradSamples [][]float32 // raw gradient snapshots when SampleGradients > 0

	GradSize         int     // flat gradient length
	Iterations       int     // total iterations executed
	AvgMsgBytes      float64 // mean compressed message size
	CompressionRatio float64

	ComputeSeconds  float64 // measured forward+backward+update (rank 0)
	CompressSeconds float64 // measured compress+decompress (rank 0)
	CommSeconds     float64 // modeled via Fabric (0 if Fabric nil)
	// CommMeasuredSeconds is the summed measured wall time of the
	// gradient exchanges on rank 0. On the in-process transport this is
	// barrier/copy time — useful for modeled-vs-measured reconciliation,
	// not a fabric stand-in. Per iteration it is IterRecord.ExchangeNs of
	// Config.Profiler's rank-0 records.
	CommMeasuredSeconds float64
	// BypassedIterations counts iterations the adapt controller decided
	// to ship uncompressed.
	BypassedIterations int
	// Telemetry is the end-of-run snapshot of Config.Telemetry (nil when
	// no registry was supplied).
	Telemetry telemetry.Snapshot
	// Fault is the fault-tolerance accounting of a Config.Fault run (nil
	// otherwise): retries, suspicions, degraded iterations, rejoins,
	// injected chaos counts, and permanently lost workers.
	Fault *FaultReport
	// Guard is the integrity-layer accounting of a Config.Guard run (nil
	// otherwise): corrupt frames rejected, values scrubbed, anomalies
	// and the escalation actions taken, drift checks and forced re-syncs.
	Guard *guard.Report
	// Halted reports that Config.Stop ended the run early at an agreed
	// iteration boundary.
	Halted bool
	// Final is rank-0's end-of-run checkpoint, captured whether the run
	// completed or halted: resume a run from it.
	Final *checkpoint.State
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Batch < 1 {
		cfg.Batch = 32
	}
	if cfg.Epochs < 1 {
		cfg.Epochs = 1
	}
	if cfg.SyncEvery < 1 {
		cfg.SyncEvery = 10
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
	if cfg.Collective != nil {
		cc := cfg.Collective.WithDefaults()
		cfg.Collective = &cc
	}
	if cfg.Guard != nil {
		if cfg.Guard.Enabled() {
			g := cfg.Guard.WithDefaults()
			cfg.Guard = &g
			cfg.guardStats = &guard.Stats{}
		} else {
			cfg.Guard = nil
		}
	}
	if cfg.Stop != nil {
		cfg.haltAt = new(atomic.Uint64)
		cfg.haltAt.Store(math.MaxUint64)
	}
	return cfg
}

// strategy returns the defaulted exchange strategy; a nil Collective is
// the flat ring, unbucketed.
func (c *Config) strategy() collective.Config {
	if c.Collective != nil {
		return *c.Collective
	}
	return collective.Config{}.WithDefaults()
}

// haltCheck runs at the top of every iteration and reports whether the
// agreed halt boundary has been reached. The first rank to observe the
// closed Stop channel at the top of iteration i proposes halting before
// iteration i+1 (CAS-min, earliest proposal wins). This cannot deadlock
// the collectives: when a rank is at the top of iteration i, no peer can
// have passed its own top-of-loop check for iteration i+1 — exiting the
// iteration-i exchange requires every rank (including this one) to have
// entered it first — so by the time any rank loads haltAt for its
// iteration-i+1 check, the barrier's happens-before edge has published
// the proposal and all ranks stop at the same boundary. On the
// fault-aware path a straggler can lag several iterations behind the
// proposer; it stops as soon as its own check reaches the boundary, and
// the degradation policies cover the rounds in between exactly as they
// cover any other absentee.
func (c *Config) haltCheck(iter int) bool {
	if c.haltAt == nil {
		return false
	}
	if uint64(iter) >= c.haltAt.Load() {
		return true
	}
	select {
	case <-c.Stop:
		want := uint64(iter) + 1
		for {
			cur := c.haltAt.Load()
			if cur <= want || c.haltAt.CompareAndSwap(cur, want) {
				break
			}
		}
		return uint64(iter) >= c.haltAt.Load()
	default:
	}
	return false
}

// Tracks is how many timeline tracks (and profiler ranks) the run
// records: one per worker and per elastic joiner — a joiner's rank exists
// from the start — plus the server's under PS. A tracer or profiler for
// the run is sized with it, and so is a service job's slot quota, less
// the server.
func (c *Config) Tracks() int {
	n := max(c.Workers, 1)
	if c.Fault != nil {
		n += len(c.Fault.ElasticJoins)
	}
	if c.PS != nil {
		n++
	}
	return n
}

// instrumented is any layer that exports metrics on the run's registry.
type instrumented interface{ Instrument(*telemetry.Registry) }

// instrument derives the run's one stage timer — shared by every worker's
// compressor and the exchange; the adapt controller reads it, the registry
// (if any) exposes it — and registers the runtime's layers, then the
// run-wide ones, on Config.Telemetry.
func (c *Config) instrument(layers ...instrumented) {
	if c.Adapt != nil {
		c.stageTimer = c.Adapt.StageTimer()
	} else if c.Telemetry != nil {
		c.stageTimer = telemetry.NewStageTimer()
	}
	if c.Telemetry == nil {
		return
	}
	for _, l := range layers {
		l.Instrument(c.Telemetry)
	}
	c.Tracer.Instrument(c.Telemetry)
	c.Profiler.Instrument(c.Telemetry)
	c.stageTimer.Register(c.Telemetry)
	if c.Adapt != nil {
		c.Adapt.Register(c.Telemetry)
	}
	if c.guardStats != nil {
		c.guardStats.Register(c.Telemetry)
	}
}

// spawn runs fn as rank's goroutine under wg. A panic dumps the timeline
// before it propagates: the flight recording is the postmortem for exactly
// this.
func (c *Config) spawn(wg *sync.WaitGroup, rank int, fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				c.Flight.Trigger(rank, trace.ReasonPanic)
				panic(r)
			}
		}()
		fn()
	}()
}

// runRank is one rank's run: build its state, run the bucket pipeline
// over the link mk makes for it, and train from startIter.
func runRank(cfg Config, rank, p, startIter int, restore *checkpoint.State, mk func(*worker) link) (*Result, error) {
	w, err := newWorker(cfg, rank, p, restore)
	if err != nil {
		return nil, err
	}
	w.ex = newPipeline(w, mk(w))
	defer w.ex.stop()
	return w.train(startIter)
}

// finish attaches the run-wide end-of-run reports to rank 0's result.
func (c *Config) finish(res *Result) *Result {
	if c.Telemetry != nil {
		res.Telemetry = c.Telemetry.Snapshot()
	}
	if c.guardStats != nil {
		rep := c.guardStats.Report()
		res.Guard = &rep
	}
	return res
}

// Validate rejects, before any rank is built, every mode combination the
// training step cannot run. TestValidateRejects lists them all. Train
// calls it first; a config compiler (serve.Spec.Config) calls it too, so
// a bad combination is refused where the job is described.
func (c *Config) Validate() error {
	if c.Model == nil || c.Train == nil {
		return fmt.Errorf("dist: Model and Train dataset are required")
	}
	guarded := c.Guard != nil && c.Guard.Enabled()
	if c.PS != nil && (c.Fault != nil || c.Collective != nil || guarded || c.Adapt != nil || c.ThetaSchedule != nil || c.MeasureAlpha) {
		return fmt.Errorf("dist: Fault, Collective, Guard, Adapt, ThetaSchedule and MeasureAlpha require the bsp backend; unset PS")
	}
	if g := c.Guard; g != nil && g.RollbackAfter != 0 && g.RollbackAfter <= guard.SkipAfter {
		return fmt.Errorf("dist: Guard.RollbackAfter %d must exceed guard.SkipAfter %d", g.RollbackAfter, guard.SkipAfter)
	}
	if col := c.Collective; col != nil {
		if err := col.Validate(); err != nil {
			return fmt.Errorf("dist: %w", err)
		}
		if col.Strategy == collective.Gossip && c.Fault == nil {
			return fmt.Errorf("dist: the gossip strategy is decentralized averaging over the failure-aware mesh; set Fault")
		}
	}
	if f := c.Fault; f != nil {
		if c.MeasureAlpha {
			return fmt.Errorf("dist: MeasureAlpha requires the barrier-based exchange; disable Fault")
		}
		if f.Staleness < 0 {
			return fmt.Errorf("dist: negative Fault.Staleness %d", f.Staleness)
		}
		if l := f.StalenessDiscount; l < 0 || l > 1 {
			return fmt.Errorf("dist: Fault.StalenessDiscount %v outside (0,1]", l)
		}
		for _, at := range f.ElasticJoins {
			if at < 0 {
				return fmt.Errorf("dist: negative ElasticJoins iteration %d", at)
			}
		}
	}
	// Every training rank draws whole batches from its own shard
	// (newWorker): Workers of them, plus one per elastic joiner under
	// Fault. The remainder goes to the last, so the floor is the smallest.
	d := c.withDefaults()
	shards := d.Workers
	if c.Fault != nil {
		shards += len(c.Fault.ElasticJoins)
	}
	if per := c.Train.Len() / shards; d.Batch > per {
		return fmt.Errorf("dist: Batch %d exceeds the smallest shard: %d samples over %d ranks leave %d", d.Batch, c.Train.Len(), shards, per)
	}
	return nil
}

// Train runs data-parallel training — BSP, or the parameter server under
// Config.PS — and returns rank-0's (the server's) statistics.
func Train(c Config) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cfg := c.withDefaults()
	if cfg.Fault != nil {
		return trainFault(cfg)
	}
	if cfg.PS != nil {
		return trainPS(cfg)
	}
	p := cfg.Workers
	cluster := comm.NewCluster(p)
	cfg.instrument(cluster)

	results := make([]*Result, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		rank := rank
		cfg.spawn(&wg, rank, func() {
			results[rank], errs[rank] = runRank(cfg, rank, p, 0, nil, func(w *worker) link {
				return newBarrierLink(w, cluster.Rank(rank))
			})
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cfg.finish(results[0]), nil
}
