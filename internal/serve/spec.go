// Package serve is the multi-tenant training job service: an HTTP/JSON
// control plane over a scheduler that admits jobs against a shared
// worker pool. Each submitted job is one dist.Train run — BSP allreduce
// or the parameter server, chosen per submission — wired with its own
// compression pipeline, integrity guard, chaos schedule, telemetry
// registry and trace ring, so tenants share the fleet but not their
// observability.
//
// The control plane mounts on the same mux as the trainer's telemetry
// endpoints (see Server.Routes); the merged /metrics view relabels every
// per-job registry with a job="<id>" pair so one Prometheus scrape
// distinguishes tenants.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"fftgrad/internal/adapt"
	"fftgrad/internal/chaos"
	"fftgrad/internal/cluster"
	"fftgrad/internal/collective"
	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/dist"
	"fftgrad/internal/guard"
	"fftgrad/internal/models"
	"fftgrad/internal/netsim"
	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
	"fftgrad/internal/sparsify"
	"fftgrad/internal/telemetry"
)

// Spec is the one job description: the JSON body of POST /jobs, and the
// value cmd/trainer binds its job flags onto. Both surfaces reach a
// dist.Config through the same three steps — FillDefaults, Validate,
// Config — so a field, its default and its valid range are each stated
// once. Every field is optional on the service: a zero value takes the
// default noted inline, so `{}` is a valid two-worker BSP job with FFT
// compression. The trainer's flags carry their own defaults and
// overwrite the table's, so there an explicit zero (`-theta 0`) stays.
type Spec struct {
	Name     string `json:"name,omitempty"`
	Backend  string `json:"backend,omitempty"`  // "bsp" (default) or "ps"
	Priority int    `json:"priority,omitempty"` // higher admits first

	Workers int   `json:"workers,omitempty"` // default 2
	Batch   int   `json:"batch,omitempty"`   // default 16
	Epochs  int   `json:"epochs,omitempty"`  // default 2
	Seed    int64 `json:"seed,omitempty"`

	Model   string `json:"model,omitempty"`   // "mlp" (default) or "cnn"
	Classes int    `json:"classes,omitempty"` // default 4
	Samples int    `json:"samples,omitempty"` // default 2048 train samples

	Method string  `json:"method,omitempty"` // compressor name; default "fft"
	Theta  float64 `json:"theta,omitempty"`  // drop ratio; default 0.85
	// DropEpoch is the epoch at which theta drops to 0 — the recovery
	// schedule of Fig. 13. Default -1: never.
	DropEpoch int `json:"drop_epoch,omitempty"`

	LR        float64 `json:"lr,omitempty"`         // default 0.05
	Momentum  float64 `json:"momentum,omitempty"`   // default 0.9
	SyncEvery int     `json:"sync_every,omitempty"` // BSP re-broadcast period

	// Async selects asynchronous PS updates (ignored on BSP).
	Async bool `json:"async,omitempty"`

	// Collective selects the BSP exchange strategy: "ring" (default),
	// "hier", "tree" or "gossip". GroupSize sets the hierarchical group
	// width (default 4); BucketBytes > 0 splits the gradient into
	// fixed-byte buckets compressed and exchanged as an overlapped pipeline.
	Collective  string `json:"collective,omitempty"`
	GroupSize   int    `json:"group_size,omitempty"`
	BucketBytes int    `json:"bucket_bytes,omitempty"`

	// Adapt lets the online perf-model controller bypass compression when
	// it cannot win on the fabric; AdaptTheta also lets it steer theta.
	Adapt      bool `json:"adapt,omitempty"`
	AdaptTheta bool `json:"adapt_theta,omitempty"`

	// Guard enables the data-plane integrity layer (CRC framing, scrub,
	// anomaly detector, drift checks). BSP only. The four knobs default
	// to CRC on, scrub "clamp" (off | clamp | skip), a fingerprint check
	// every 50 iterations and rollback after 6 consecutive anomalies.
	Guard              bool   `json:"guard,omitempty"`
	GuardCRC           *bool  `json:"guard_crc,omitempty"`
	GuardScrub         string `json:"guard_scrub,omitempty"`
	GuardDriftEvery    int    `json:"guard_drift_every,omitempty"`
	GuardRollbackAfter int    `json:"guard_rollback_after,omitempty"`

	// Fault routes the BSP exchange through the failure-aware cluster
	// runtime; implied by Chaos, Staleness, ElasticJoins, and the gossip
	// collective. The runtime's knobs: heartbeat period (default 2 ms),
	// silence before a peer is suspected (default 200 ms), nack/resend
	// rounds per exchange (default 8), dead-rank policy failfast |
	// rescale | stale (default) and straggler policy wait (default) | drop.
	Fault          bool   `json:"fault,omitempty"`
	HeartbeatMS    Millis `json:"heartbeat_ms,omitempty"`
	SuspectAfterMS Millis `json:"suspect_after_ms,omitempty"`
	MaxRetries     int    `json:"max_retries,omitempty"`
	OnFailure      string `json:"on_failure,omitempty"`
	OnStraggler    string `json:"on_straggler,omitempty"`
	// Chaos injects a deterministic fault schedule (BSP fault path).
	Chaos *ChaosSpec `json:"chaos,omitempty"`

	// Staleness > 0 selects the bounded-staleness exchange: workers may
	// run up to this many iterations ahead of the slowest live rank, and
	// a peer missing the round's grace budget contributes its freshest
	// cached gradient damped by StalenessDiscount^d.
	Staleness int `json:"staleness,omitempty"`
	// StalenessDiscount is the per-iteration damping factor λ ∈ (0,1]
	// for stale contributions; 0 defaults to 0.9.
	StalenessDiscount float64 `json:"staleness_discount,omitempty"`
	// ElasticJoins schedules brand-new ranks joining mid-run at the given
	// iterations. Each entry grows the job's worker quota by one slot,
	// reserved from submission time.
	ElasticJoins []int `json:"elastic_joins,omitempty"`

	// ResumeFrom names a checkpoint file (e.g. a drain spool entry) to
	// restore before training starts.
	ResumeFrom string `json:"resume_from,omitempty"`
}

// ChaosSpec mirrors the chaos.Config knobs a job may set.
type ChaosSpec struct {
	Seed      int64   `json:"seed,omitempty"`
	Drop      float64 `json:"drop,omitempty"`
	DelayProb float64 `json:"delay_prob,omitempty"`
	DelayMS   Millis  `json:"delay_ms,omitempty"`
	Dup       float64 `json:"dup,omitempty"`
	Corrupt   float64 `json:"corrupt,omitempty"` // single-bit-flip probability

	// CrashRank, when set, crashes that rank at CrashAtOp transport
	// operations (default 1200) and recovers it RecoverAfterOps later
	// (default 1000) — the kill-a-worker-mid-job scenario of the rejoin
	// tests.
	CrashRank       *int   `json:"crash_rank,omitempty"`
	CrashAtOp       uint64 `json:"crash_at_op,omitempty"`
	RecoverAfterOps uint64 `json:"recover_after_ops,omitempty"`

	// StraggleRank, when set, makes that rank slow but never dead: from
	// StraggleAtOp, for StraggleOps operations (0: for good), each of its
	// sends is delivered StraggleByMS late (default 20 ms).
	StraggleRank *int   `json:"straggle_rank,omitempty"`
	StraggleByMS Millis `json:"straggle_by_ms,omitempty"`
	StraggleAtOp uint64 `json:"straggle_at_op,omitempty"`
	StraggleOps  uint64 `json:"straggle_ops,omitempty"`
}

// Millis is a duration that travels as milliseconds in JSON (fractions
// allowed) and is a time.Duration in memory, so a duration flag binds to
// it directly.
type Millis time.Duration

func (m Millis) ms() float64 { return float64(m) / float64(time.Millisecond) }

func (m Millis) MarshalJSON() ([]byte, error) { return json.Marshal(m.ms()) }

func (m *Millis) UnmarshalJSON(b []byte) error {
	var ms float64
	if err := json.Unmarshal(b, &ms); err != nil {
		return err
	}
	// Converting a float64 outside int64's range is implementation-defined
	// (MinInt64 on amd64, saturation on arm64): refuse it, NaN included.
	ns := math.Round(ms * float64(time.Millisecond))
	if !(ns >= -1<<63 && ns < 1<<63) {
		return fmt.Errorf("%s ms does not fit a duration (int64 nanoseconds)", b)
	}
	*m = Millis(ns)
	return nil
}

// fill sets *p to def when it holds its zero value.
func fill[T comparable](p *T, def T) {
	var zero T
	if *p == zero {
		*p = def
	}
}

// FillDefaults is the service's zero-value table: every field still at
// its zero value takes the service default. cmd/trainer calls it before
// binding its flags, so there it only decides the fields no flag sets.
func (s *Spec) FillDefaults() {
	fill(&s.Backend, "bsp")
	fill(&s.Workers, 2)
	fill(&s.Batch, 16)
	fill(&s.Epochs, 2)
	fill(&s.Model, "mlp")
	fill(&s.Classes, 4)
	fill(&s.Samples, 2048)
	fill(&s.Method, "fft")
	fill(&s.Theta, 0.85)
	fill(&s.DropEpoch, -1)
	fill(&s.LR, 0.05)
	fill(&s.Momentum, 0.9)
	fill(&s.GuardScrub, "clamp")
	fill(&s.GuardDriftEvery, 50)
	fill(&s.GuardRollbackAfter, 6)
	// Service-speed cluster tuning: tight heartbeats so failure detection
	// and rejoin complete within a short job's lifetime.
	fill(&s.HeartbeatMS, Millis(2*time.Millisecond))
	fill(&s.SuspectAfterMS, Millis(200*time.Millisecond))
	fill(&s.MaxRetries, 8)
	fill(&s.OnFailure, "stale")
	fill(&s.OnStraggler, "wait")
	if s.Chaos != nil {
		c := *s.Chaos // the caller keeps its copy
		fill(&c.CrashAtOp, 1200)
		fill(&c.RecoverAfterOps, 1000)
		fill(&c.StraggleByMS, Millis(20*time.Millisecond))
		s.Chaos = &c
	}
}

// bound is one row of Validate's range table: v must lie in [lo, hi].
type bound struct {
	key       string
	v, lo, hi float64
}

// Validate is the one rejection table for a filled Spec: the checks only
// the job description can make (backend, slot caps, value ranges, names).
// Mode combinations are dist.Config.Validate's, which Config ends in.
func (s *Spec) Validate() error {
	if s.Backend != "bsp" && s.Backend != "ps" {
		return fmt.Errorf("backend %q: want bsp or ps", s.Backend)
	}
	if s.Model != "mlp" && s.Model != "cnn" {
		return fmt.Errorf("model %q: want mlp or cnn", s.Model)
	}
	ranks := s.Workers + len(s.ElasticJoins) // each join reserves a slot
	// The half-open ranges, written so that NaN fails.
	if !(s.Theta >= 0 && s.Theta < 1) {
		return fmt.Errorf("theta %v outside [0,1)", s.Theta)
	}
	if !(s.LR > 0) {
		return fmt.Errorf("lr %v must be positive", s.LR)
	}
	if !(s.Momentum >= 0 && s.Momentum < 1) {
		return fmt.Errorf("momentum %v outside [0,1)", s.Momentum)
	}
	inf := math.Inf(1)
	rows := []bound{
		{"workers", float64(s.Workers), 1, 64},
		{"workers + elastic_joins", float64(ranks), 1, 64},
		{"batch", float64(s.Batch), 1, inf},
		{"epochs", float64(s.Epochs), 1, 100},
		{"classes", float64(s.Classes), 1, 1024},
		{"samples", float64(s.Samples), float64(s.Workers * s.Batch), 1 << 20},
		{"drop_epoch", float64(s.DropEpoch), -1, inf},
		{"sync_every", float64(s.SyncEvery), 0, inf},
		{"group_size", float64(s.GroupSize), 0, inf},
		{"bucket_bytes", float64(s.BucketBytes), 0, inf},
		{"staleness", float64(s.Staleness), 0, inf},
		{"staleness_discount", s.StalenessDiscount, 0, 1},
		{"heartbeat_ms", s.HeartbeatMS.ms(), 0, inf},
		{"suspect_after_ms", s.SuspectAfterMS.ms(), 0, inf},
		{"max_retries", float64(s.MaxRetries), 1, inf},
		{"guard_drift_every", float64(s.GuardDriftEvery), 0, inf},
		{"guard_rollback_after", float64(s.GuardRollbackAfter), guard.SkipAfter + 1, inf},
	}
	if c := s.Chaos; c != nil {
		rows = append(rows,
			bound{"chaos.drop", c.Drop, 0, 1},
			bound{"chaos.delay_prob", c.DelayProb, 0, 1},
			bound{"chaos.dup", c.Dup, 0, 1},
			bound{"chaos.corrupt", c.Corrupt, 0, 1},
			bound{"chaos.delay_ms", c.DelayMS.ms(), 0, inf},
			bound{"chaos.straggle_by_ms", c.StraggleByMS.ms(), 0, inf})
		if c.CrashRank != nil {
			rows = append(rows, bound{"chaos.crash_rank", float64(*c.CrashRank), 0, float64(ranks - 1)})
		}
		if c.StraggleRank != nil {
			rows = append(rows, bound{"chaos.straggle_rank", float64(*c.StraggleRank), 0, float64(ranks - 1)})
		}
	}
	for _, r := range rows {
		if !(r.v >= r.lo && r.v <= r.hi) {
			return fmt.Errorf("%s %v out of range [%v,%v]", r.key, r.v, r.lo, r.hi)
		}
	}
	// The four names, each by the parser that owns its vocabulary.
	_, method := compress.New(s.Method, s.Theta)
	_, failure := cluster.ParsePolicy(s.OnFailure)
	_, straggler := cluster.ParseStragglerPolicy(s.OnStraggler)
	_, scrub := guard.ParseScrubPolicy(s.GuardScrub)
	return errors.Join(method, failure, straggler, scrub)
}

// normalize is the service's admission step: defaults, then the table.
func (s *Spec) normalize() error {
	s.FillDefaults()
	return s.Validate()
}

// faultPath reports whether the job runs on the failure-aware cluster
// runtime — requested directly or implied by a feature that needs it
// (chaos, bounded staleness, elastic joins, gossip).
func (s *Spec) faultPath() bool {
	return s.Fault || s.Chaos != nil || s.Staleness > 0 || len(s.ElasticJoins) > 0 ||
		s.Collective == string(collective.Gossip)
}

// workload builds the synthetic dataset and the model constructor.
func (s *Spec) workload() (train, test *data.Dataset, model func(int64) *nn.Network) {
	classes := s.Classes
	if s.Model == "cnn" {
		train, test = data.SynthImages(s.Samples+512, classes, 16, 0.3, s.Seed).Split(s.Samples)
		return train, test, func(seed int64) *nn.Network { return models.TinyCNN(classes, 16, seed) }
	}
	train, test = data.GaussianBlobs(s.Samples+512, classes, 24, 0.8, s.Seed).Split(s.Samples)
	return train, test, func(seed int64) *nn.Network { return models.MLP(24, 48, classes, seed) }
}

// newCompressor is the per-worker compressor factory.
func (s *Spec) newCompressor() func() compress.Compressor {
	method, theta := s.Method, s.Theta
	return func() compress.Compressor {
		c, err := compress.New(method, theta)
		if err != nil {
			panic(err) // Validate built one from the same inputs
		}
		return c
	}
}

// Config compiles a Spec that passed Validate into the run it describes,
// on either backend — dataset, model, compressor factory, exchange
// strategy and the optional adapt, guard and fault/chaos layers — and ends
// in dist.Config.Validate, so a mode combination the training step cannot
// run (a BSP-only option on the parameter server, say) is refused here,
// before a rank is built. It is the only place a job description becomes
// a dist.Config; the caller overlays what belongs to the process rather
// than the job (tracer, profiler, stop channel).
func (s *Spec) Config() (dist.Config, error) {
	train, test, model := s.workload()
	cfg := dist.Config{
		Workers:       s.Workers,
		Batch:         s.Batch,
		Epochs:        s.Epochs,
		Seed:          s.Seed,
		Momentum:      s.Momentum,
		LR:            optim.ConstLR(s.LR),
		SyncEvery:     s.SyncEvery,
		Model:         model,
		Train:         train,
		Test:          test,
		NewCompressor: s.newCompressor(),
		Fabric:        netsim.CometCluster(),
	}
	if s.Backend == "ps" {
		// The star is priced link by link, on the paper's FDR fabric.
		cfg.PS, cfg.Fabric = &dist.PSConfig{Async: s.Async}, netsim.InfiniBandFDR
	}
	if (s.Collective != "" && s.Collective != string(collective.Ring)) || s.BucketBytes > 0 {
		cfg.Collective = &collective.Config{
			Strategy:    collective.Strategy(s.Collective),
			GroupSize:   s.GroupSize,
			BucketBytes: s.BucketBytes,
		}
	}
	if s.DropEpoch >= 0 {
		cfg.ThetaSchedule = sparsify.StepDrop{Initial: s.Theta, Final: 0, DropEpoch: s.DropEpoch}
	}
	if s.Adapt {
		// The controller publishes its decisions on a registry; a harness
		// that brings its own (the service's per-job one) replaces this.
		cfg.Telemetry = telemetry.NewRegistry()
		cfg.Adapt = adapt.New(adapt.Config{AdjustTheta: s.AdaptTheta})
	}
	if s.Guard {
		scrub, _ := guard.ParseScrubPolicy(s.GuardScrub) // Validate parsed it
		cfg.Guard = &guard.Config{
			CRC:           s.GuardCRC == nil || *s.GuardCRC,
			Scrub:         scrub,
			Detect:        true,
			DriftEvery:    s.GuardDriftEvery,
			RollbackAfter: s.GuardRollbackAfter,
		}
	}
	if s.faultPath() {
		policy, _ := cluster.ParsePolicy(s.OnFailure) // Validate parsed both
		straggler, _ := cluster.ParseStragglerPolicy(s.OnStraggler)
		cfg.Fault = &dist.FaultConfig{
			Cluster: cluster.Config{
				Heartbeat:    time.Duration(s.HeartbeatMS),
				SuspectAfter: time.Duration(s.SuspectAfterMS),
				MaxRetries:   s.MaxRetries,
				Policy:       policy,
				OnStraggler:  straggler,
				Seed:         s.Seed,
				// The four timings no flag or field sets. They only bound
				// waits; the long stall and rejoin limits are what a crashed
				// rank's rejoin needs under the race detector.
				BackoffBase: 2 * time.Millisecond,
				BackoffMax:  50 * time.Millisecond,
				MaxStall:    30 * time.Second,
				RejoinWait:  30 * time.Second,
			},
			Staleness:         s.Staleness,
			StalenessDiscount: s.StalenessDiscount,
			ElasticJoins:      s.ElasticJoins,
		}
		if c := s.Chaos; c != nil {
			cc := &chaos.Config{
				Seed:      c.Seed,
				Drop:      c.Drop,
				DelayProb: c.DelayProb,
				Delay:     time.Duration(c.DelayMS),
				Dup:       c.Dup,
				Corrupt:   c.Corrupt,
			}
			if c.CrashRank != nil {
				cc.Crashes = []chaos.CrashEvent{{Rank: *c.CrashRank, AtOp: c.CrashAtOp, RecoverAfterOps: c.RecoverAfterOps}}
			}
			if c.StraggleRank != nil {
				cc.Stragglers = []chaos.StragglerEvent{{Rank: *c.StraggleRank, FromOp: c.StraggleAtOp, Ops: c.StraggleOps, SlowBy: time.Duration(c.StraggleByMS)}}
			}
			cfg.Fault.Chaos = cc
		}
	}
	return cfg, cfg.Validate()
}
