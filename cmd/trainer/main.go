// Command trainer runs BSP data-parallel training on a synthetic image
// classification task with a selectable gradient-compression algorithm,
// printing per-epoch loss/accuracy and the compression/communication
// accounting — a command-line version of the paper's training runs.
//
// Usage:
//
//	trainer -method fft -theta 0.85 -workers 8 -epochs 5
//	trainer -method topk -theta 0.9 -drop-epoch 3   # recovery schedule
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"fftgrad/internal/adapt"
	"fftgrad/internal/buildinfo"
	"fftgrad/internal/chaos"
	"fftgrad/internal/checkpoint"
	"fftgrad/internal/cluster"
	"fftgrad/internal/collective"
	"fftgrad/internal/compress"
	"fftgrad/internal/data"
	"fftgrad/internal/dist"
	"fftgrad/internal/guard"
	"fftgrad/internal/models"
	"fftgrad/internal/netsim"
	"fftgrad/internal/nn"
	"fftgrad/internal/obs"
	"fftgrad/internal/optim"
	"fftgrad/internal/serve"
	"fftgrad/internal/sparsify"
	"fftgrad/internal/stats"
	"fftgrad/internal/telemetry"
	itrace "fftgrad/internal/trace"
)

func main() {
	method := flag.String("method", "fft", "fp32 | fft | dct | topk | qsgd | terngrad")
	theta := flag.Float64("theta", 0.85, "drop ratio for fft/topk")
	dropEpoch := flag.Int("drop-epoch", -1, "epoch at which theta drops to 0 (-1: never)")
	workers := flag.Int("workers", 4, "number of BSP workers")
	epochs := flag.Int("epochs", 4, "training epochs")
	batch := flag.Int("batch", 16, "per-worker batch size")
	samples := flag.Int("samples", 2048, "training samples")
	classes := flag.Int("classes", 8, "number of classes")
	model := flag.String("model", "cnn", "cnn | mlp")
	lr := flag.Float64("lr", 0.03, "learning rate")
	seed := flag.Int64("seed", 1, "random seed")
	alpha := flag.Bool("alpha", false, "measure Assumption 3.2 alpha each iteration")
	trace := flag.Bool("trace", false, "print a per-iteration timing breakdown")
	sparseAR := flag.Bool("sparse-allreduce", false, "exchange via the sparse ring allreduce instead of allgather (uses -theta, ignores -method)")
	collectiveStrategy := flag.String("collective", "ring", "exchange strategy: ring | hier | tree | gossip (gossip implies -fault-aware)")
	groupSize := flag.Int("group-size", 4, "with -collective hier, ranks per group (leader fan-in)")
	bucketBytes := flag.Int("bucket-bytes", 0, "split the gradient into fixed-byte buckets exchanged in flight while later buckets compress (0: monolithic)")
	partitioned := flag.Bool("partitioned", false, "with -sparse-allreduce, MiCRO-style disjoint rotating index partitions per rank")
	metricsAddr := flag.String("metrics-addr", "", "serve live Prometheus/JSON metrics on this address (e.g. :9090)")
	traceOut := flag.String("trace-out", "", "record a per-iteration distributed timeline and write it here as Chrome trace_event JSON (open in ui.perfetto.dev)")
	traceIters := flag.Int("trace-iters", 256, "with -trace-out, iterations of history the per-rank trace ring retains")
	pprofOn := flag.Bool("pprof", false, "with -metrics-addr, also serve net/http/pprof under /debug/pprof/")
	profileOn := flag.Bool("profile", false, "enable the cross-rank iteration profiler: critical paths, straggler blame, anomaly-triggered capture")
	profileOut := flag.String("profile-out", "", "write the end-of-run iteration profile here as JSON (implies -profile)")
	topView := flag.Bool("top", false, "live per-rank blame / critical-path table on stderr while training runs (implies -profile)")
	adaptive := flag.Bool("adapt", false, "let the online perf-model controller bypass compression when it cannot win on the fabric")
	adaptTheta := flag.Bool("adapt-theta", false, "with -adapt, also let the controller steer theta toward the beneficial ratio")

	// Job-service mode (internal/serve).
	serveMode := flag.Bool("serve", false, "run as a multi-tenant training job service instead of a one-shot run (HTTP job API on -metrics-addr, default :9090)")
	poolSlots := flag.Int("pool", 8, "with -serve, worker slots in the shared scheduling pool")
	queueMax := flag.Int("queue", 16, "with -serve, maximum queued jobs before submissions get 429")
	spoolDir := flag.String("spool", "spool", "with -serve, directory for drain-time job checkpoints (\"\" disables spooling)")

	// Failure-aware runtime (internal/cluster) + chaos injection.
	faultAware := flag.Bool("fault-aware", false, "exchange through the failure-aware cluster runtime (heartbeats, retry, degradation, rejoin)")
	heartbeat := flag.Duration("heartbeat", 2*time.Millisecond, "with -fault-aware, heartbeat period")
	suspectAfter := flag.Duration("suspect-after", 0, "with -fault-aware, silence before a peer is suspected dead (0: 50x heartbeat)")
	maxRetries := flag.Int("max-retries", 5, "with -fault-aware, nack/resend rounds per exchange before classifying the absentee")
	onFailure := flag.String("on-failure", "rescale", "with -fault-aware, dead-rank policy: failfast | rescale | stale")
	onStraggler := flag.String("on-straggler", "wait", "with -fault-aware, straggler policy: wait | drop")
	staleness := flag.Int("staleness", 0, "with -fault-aware, bounded-staleness window K in iterations: ranks run up to K ahead, late gradients fold in damped (0: strict BSP)")
	stalenessDiscount := flag.Float64("staleness-discount", 0.9, "with -staleness, per-iteration damping factor applied to stale gradients")
	elasticJoin := flag.String("elastic-join", "", "comma-separated iterations at which brand-new ranks join mid-run (implies -fault-aware; e.g. 10,20)")
	chaosDrop := flag.Float64("chaos-drop", 0, "chaos: per-message drop probability (enables fault injection)")
	chaosDelay := flag.Duration("chaos-delay", 0, "chaos: max injected message delay")
	chaosDelayProb := flag.Float64("chaos-delay-prob", 0.1, "chaos: probability a message is delayed (with -chaos-delay)")
	chaosDup := flag.Float64("chaos-dup", 0, "chaos: per-message duplication probability")
	chaosCrash := flag.Int("chaos-crash", -1, "chaos: rank to crash mid-run (-1: none)")
	chaosCrashAt := flag.Uint64("chaos-crash-at", 1000, "chaos: crash at this transport-op index")
	chaosCrashFor := flag.Uint64("chaos-crash-for", 1000, "chaos: recover after this many ops (0: never)")
	chaosCorrupt := flag.Float64("chaos-corrupt", 0, "chaos: per-message single-bit-flip probability")
	chaosStraggle := flag.Int("chaos-straggle", -1, "chaos: rank made persistently slow, never dead (-1: none)")
	chaosStraggleBy := flag.Duration("chaos-straggle-by", 20*time.Millisecond, "chaos: per-send delivery delay of the straggling rank")
	chaosStraggleAt := flag.Uint64("chaos-straggle-at", 0, "chaos: transport-op index at which the straggle window opens")
	chaosStraggleFor := flag.Uint64("chaos-straggle-for", 0, "chaos: ops until the straggler recovers (0: never)")
	chaosSeed := flag.Int64("chaos-seed", 1, "chaos: fault-schedule seed")

	// Gradient integrity guard (internal/guard).
	guardOn := flag.Bool("guard", false, "enable the gradient integrity guard (CRC framing, scrub, anomaly detector, drift checks)")
	guardCRC := flag.Bool("guard-crc", true, "with -guard, CRC32C-frame every compressed gradient message")
	guardScrub := flag.String("guard-scrub", "clamp", "with -guard, non-finite gradient policy: off | clamp | skip")
	guardDriftEvery := flag.Int("guard-drift-every", 50, "with -guard, iterations between cross-rank parameter fingerprint checks (0: off)")
	guardRollbackAfter := flag.Int("guard-rollback-after", 6, "with -guard, consecutive anomalies before auto-rollback")
	flag.Parse()

	if *serveMode {
		runServe(*metricsAddr, serve.Config{
			WorkerSlots: *poolSlots,
			MaxQueue:    *queueMax,
			SpoolDir:    *spoolDir,
		})
		return
	}

	newCompressor, err := buildCompressor(*method, *theta)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var (
		train, test *data.Dataset
		modelFn     func(int64) *nn.Network
	)
	switch *model {
	case "cnn":
		train, test = data.SynthImages(*samples+512, *classes, 16, 0.3, *seed).Split(*samples)
		modelFn = func(s int64) *nn.Network { return models.TinyCNN(*classes, 16, s) }
	case "mlp":
		train, test = data.GaussianBlobs(*samples+512, *classes, 24, 0.8, *seed).Split(*samples)
		modelFn = func(s int64) *nn.Network { return models.MLP(24, 48, *classes, s) }
	default:
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
		os.Exit(2)
	}

	cfg := dist.Config{
		Workers: *workers, Batch: *batch, Epochs: *epochs, Seed: *seed,
		Momentum:      0.9,
		LR:            optim.ConstLR(*lr),
		Model:         modelFn,
		Train:         train,
		Test:          test,
		NewCompressor: newCompressor,
		Fabric:        netsim.CometCluster(),
		MeasureAlpha:  *alpha,
		Trace:         *trace,
	}
	if *sparseAR {
		cfg.UseSparseAllreduce = true
		cfg.SparseTheta = *theta
	}
	if *collectiveStrategy != "ring" || *bucketBytes > 0 || *partitioned {
		cfg.Collective = &collective.Config{
			Strategy:    collective.Strategy(*collectiveStrategy),
			GroupSize:   *groupSize,
			BucketBytes: *bucketBytes,
			Partitioned: *partitioned,
		}
	}
	if *dropEpoch >= 0 {
		cfg.ThetaSchedule = sparsify.StepDrop{Initial: *theta, Final: 0, DropEpoch: *dropEpoch}
	}
	if *metricsAddr != "" || *adaptive {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if *adaptive {
		cfg.Adapt = adapt.New(adapt.Config{AdjustTheta: *adaptTheta}, nil)
	}
	if *guardOn {
		policy, err := guard.ParseScrubPolicy(*guardScrub)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Guard = &guard.Config{
			CRC:           *guardCRC,
			Scrub:         policy,
			Detect:        true,
			DriftEvery:    *guardDriftEvery,
			RollbackAfter: *guardRollbackAfter,
		}
	}
	var joinIters []int
	if *elasticJoin != "" {
		for _, tok := range strings.Split(*elasticJoin, ",") {
			var at int
			if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d", &at); err != nil || at < 0 {
				fmt.Fprintf(os.Stderr, "bad -elastic-join entry %q\n", tok)
				os.Exit(2)
			}
			joinIters = append(joinIters, at)
		}
	}
	chaosWanted := *chaosDrop > 0 || *chaosDelay > 0 || *chaosDup > 0 || *chaosCrash >= 0 || *chaosCorrupt > 0 || *chaosStraggle >= 0
	policy, err := cluster.ParsePolicy(*onFailure)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stragglerPolicy, err := cluster.ParseStragglerPolicy(*onStraggler)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *faultAware || chaosWanted || *staleness > 0 || len(joinIters) > 0 || *collectiveStrategy == "gossip" {
		cfg.Fault = &dist.FaultConfig{
			Cluster: cluster.Config{
				Heartbeat:    *heartbeat,
				SuspectAfter: *suspectAfter,
				MaxRetries:   *maxRetries,
				Policy:       policy,
				OnStraggler:  stragglerPolicy,
				Seed:         *seed,
			},
			Staleness:         *staleness,
			StalenessDiscount: *stalenessDiscount,
			ElasticJoins:      joinIters,
		}
		if chaosWanted {
			cc := &chaos.Config{
				Seed:      *chaosSeed,
				Drop:      *chaosDrop,
				DelayProb: *chaosDelayProb,
				Delay:     *chaosDelay,
				Dup:       *chaosDup,
				Corrupt:   *chaosCorrupt,
			}
			if *chaosCrash >= 0 {
				cc.Crashes = []chaos.CrashEvent{{Rank: *chaosCrash, AtOp: *chaosCrashAt, RecoverAfterOps: *chaosCrashFor}}
			}
			if *chaosStraggle >= 0 {
				cc.Stragglers = []chaos.StragglerEvent{{Rank: *chaosStraggle, FromOp: *chaosStraggleAt, Ops: *chaosStraggleFor, SlowBy: *chaosStraggleBy}}
			}
			cfg.Fault.Chaos = cc
			fmt.Printf("chaos schedule: %s\n", cc)
		}
	}
	var tracer *itrace.Tracer
	if *traceOut != "" {
		tracer = itrace.New(*workers+len(joinIters), *traceIters*itrace.DefaultEventsPerIteration)
		cfg.Tracer = tracer
		cfg.Flight = itrace.NewFlightRecorder(tracer, flightPath(*traceOut))
		defer func() {
			if r := recover(); r != nil {
				cfg.Flight.Trigger(0, itrace.ReasonPanic)
				panic(r)
			}
		}()
	}
	var prof *obs.Profiler
	var stopCapture func()
	if *profileOn || *profileOut != "" || *topView {
		prof = obs.New(*workers+len(joinIters), 0)
		cfg.Profiler = prof
		if cfg.Telemetry == nil {
			// The profiler's rolling blame percentiles live in telemetry
			// histograms; give it a registry even without -metrics-addr.
			cfg.Telemetry = telemetry.NewRegistry()
		}
		// Anomaly captures (pprof CPU window + flight dump + cross-link)
		// land next to the profile output, else the trace output, else cwd.
		capDir := "."
		switch {
		case *profileOut != "":
			capDir = filepath.Dir(*profileOut)
		case *traceOut != "":
			capDir = filepath.Dir(*traceOut)
		}
		stopCapture = prof.EnableCapture(obs.CaptureConfig{Dir: capDir, Flight: cfg.Flight})
	}
	var draining atomic.Bool // flips /readyz once a halt is requested
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		buildinfo.Register(cfg.Telemetry)
		mux.Handle("/", cfg.Telemetry.Handler())
		if tracer != nil {
			mux.Handle("/trace", tracer.Handler())
		}
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		if prof != nil {
			mux.Handle("/profile", prof.Handler())
			if tracer != nil {
				mux.HandleFunc("/trace/merged", func(w http.ResponseWriter, _ *http.Request) {
					w.Header().Set("Content-Type", "application/json")
					_ = tracer.WriteMergedJSON(w, prof.Offsets())
				})
			}
		}
		mux.Handle("/debug/status", prof.StatusHandler(tracer.DroppedTotal))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			_, _ = io.WriteString(w, "ok\n")
		})
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
			if draining.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
				_, _ = io.WriteString(w, "draining\n")
				return
			}
			_, _ = io.WriteString(w, "ok\n")
		})
		bound, shutdown, err := telemetry.ServeHandler(*metricsAddr, mux)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() { _ = shutdown() }()
		fmt.Printf("metrics: http://%s/metrics (Prometheus) and /metrics.json\n", bound)
		if tracer != nil {
			fmt.Printf("trace:   http://%s/trace (Chrome trace_event JSON)\n", bound)
		}
		if *pprofOn {
			fmt.Printf("pprof:   http://%s/debug/pprof/\n", bound)
		}
		if prof != nil {
			fmt.Printf("profile: http://%s/profile (critical paths, blame ledger) and /debug/status\n", bound)
		}
	}

	// SIGINT/SIGTERM halt cooperatively at the next iteration boundary:
	// the run returns normally (Halted set), so the trace dump, metrics
	// summary, and the deferred graceful mux shutdown all still happen —
	// previously an interrupt killed the process and could lose the
	// flight recorder's final dump. A second signal force-quits.
	stopCh := make(chan struct{})
	cfg.Stop = stopCh
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "signal: halting at the next iteration boundary (send again to force quit)")
		draining.Store(true)
		close(stopCh)
		<-sigCh
		os.Exit(130)
	}()

	fmt.Printf("training %s with %s (θ=%.2f) on %d workers\n", *model, *method, *theta, *workers)
	var stopTop func()
	if *topView {
		topStop := make(chan struct{})
		topDone := make(chan struct{})
		go func() {
			prof.Top(os.Stderr, 0, topStop)
			close(topDone)
		}()
		stopTop = func() {
			close(topStop)
			<-topDone
			fmt.Fprintln(os.Stderr)
		}
	}
	res, err := dist.Train(cfg)
	if stopTop != nil {
		stopTop()
	}
	if stopCapture != nil {
		stopCapture() // drain the anomaly-capture worker before dumping
	}
	if tracer != nil {
		// Dump the timeline even when training failed: the final
		// iterations leading into the error are exactly what a
		// postmortem wants to see.
		data, merr := tracer.MarshalJSON()
		if merr == nil {
			merr = checkpoint.WriteBytesAtomic(*traceOut, data)
		}
		if merr != nil {
			fmt.Fprintf(os.Stderr, "trace dump failed: %v\n", merr)
		} else {
			fmt.Printf("trace: wrote %s (%d bytes; open in ui.perfetto.dev)\n", *traceOut, len(data))
		}
		if prof != nil {
			// The clock-aligned multi-process view: every rank's ring merged
			// into one timeline, re-based by the profiler's offset estimates.
			var buf bytes.Buffer
			if merr := tracer.WriteMergedJSON(&buf, prof.Offsets()); merr == nil {
				mp := mergedPath(*traceOut)
				if werr := checkpoint.WriteBytesAtomic(mp, buf.Bytes()); werr != nil {
					fmt.Fprintf(os.Stderr, "merged trace dump failed: %v\n", werr)
				} else {
					fmt.Printf("trace: wrote %s (clock-aligned multi-process view)\n", mp)
				}
			}
		}
	}
	if prof != nil {
		// Dump the profile even when training failed, like the trace: the
		// blame ledger of the iterations before the error is the postmortem.
		doc := prof.BuildProfile(true)
		topRank, topFrac := -1, 0.0
		for _, b := range doc.Blame {
			if b.BlamedFrac > topFrac {
				topRank, topFrac = b.Rank, b.BlamedFrac
			}
		}
		if topRank >= 0 {
			fmt.Printf("profile: top blamed rank %d (%.0f%% of %.3fs blocked time over %d iterations)\n",
				topRank, 100*topFrac, float64(doc.Summary.TotalBlockedNs)/1e9, doc.Summary.Iterations)
		}
		if n := len(doc.Captures); n > 0 {
			fmt.Printf("profile: %d anomaly capture(s) written: pprof CPU window + flight dump, cross-linked by iteration\n", n)
		}
		if *profileOut != "" {
			data, merr := json.MarshalIndent(&doc, "", "  ")
			if merr == nil {
				merr = checkpoint.WriteBytesAtomic(*profileOut, data)
			}
			if merr != nil {
				fmt.Fprintf(os.Stderr, "profile dump failed: %v\n", merr)
			} else {
				fmt.Printf("profile: wrote %s (%d bytes)\n", *profileOut, len(data))
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if res.Halted {
		fmt.Printf("halted by signal after %d iterations\n", res.Iterations)
	}
	t := &stats.Table{Headers: []string{"epoch", "train loss", "test acc", "lr", "theta"}}
	for _, ep := range res.Epochs {
		t.AddRow(ep.Epoch, ep.TrainLoss, ep.TestAcc, ep.LR, ep.Theta)
	}
	fmt.Print(t.String())
	fmt.Printf("\ngradient size: %d floats (%.2f MB)\n", res.GradSize, float64(res.GradSize*4)/(1<<20))
	fmt.Printf("compression ratio: %.2fx (avg message %.1f KB)\n", res.CompressionRatio, res.AvgMsgBytes/1024)
	fmt.Printf("measured compute %.2fs, compress %.2fs; modeled comm %.4fs (measured exchange %.4fs)\n",
		res.ComputeSeconds, res.CompressSeconds, res.CommSeconds, res.CommMeasuredSeconds)
	var rec netsim.Reconciliation
	rec.Add(res.CommSeconds, res.CommMeasuredSeconds)
	if rec.Samples() > 0 {
		fmt.Printf("fabric reconciliation: in-process exchange ran %.2fx the modeled fabric time\n", rec.Ratio())
	}
	if cfg.Adapt != nil {
		d := cfg.Adapt.Last()
		fmt.Printf("adapt: bypassed %d iterations, %d flips; last k_min %.2f at Tcomm %.1f MB/s (ratio %.2f)\n",
			res.BypassedIterations, cfg.Adapt.Flips(), d.KMin, d.Tcomm/1e6, d.Ratio)
	}
	if res.Telemetry != nil {
		fmt.Println("live stage throughput (MB/s):")
		for _, s := range []string{"tm", "tf", "tp", "ts", "comm"} {
			if v := res.Telemetry[`fftgrad_stage_throughput_bytes_per_second{stage="`+s+`"}`]; v > 0 {
				fmt.Printf("  %-4s %10.1f\n", s, v/1e6)
			}
		}
	}
	if res.Fault != nil {
		s := res.Fault.Cluster
		fmt.Printf("fault runtime: %d retries, %d suspicions, %d degraded iters, %d stale reuses, %d rejoins, %d skipped syncs, %d/%d ranks alive at end\n",
			s.Retries, s.Suspicions, s.DegradedIterations, s.StaleReuses, s.Rejoins, s.SkippedSyncs, s.FinalAlive, *workers+len(joinIters))
		if s.ElasticJoins > 0 || s.GossipRounds > 0 || s.StalenessMax > 0 {
			fmt.Printf("elasticity: %d elastic joins, %d gossip rounds, max folded staleness %d seqs\n",
				s.ElasticJoins, s.GossipRounds, s.StalenessMax)
		}
		if res.Fault.LostWorkers > 0 {
			fmt.Printf("fault runtime: %d worker(s) permanently lost; run completed degraded\n", res.Fault.LostWorkers)
		}
		if c := res.Fault.Chaos; c != nil {
			fmt.Printf("chaos injected: %d drops, %d delays, %d dups, %d corruptions, %d crashed ops, %d partitioned, %d straggled ops\n",
				c.Drops, c.Delays, c.Dups, c.Corruptions, c.CrashedOps, c.Partitioned, c.StraggledOps)
		}
	}
	if g := res.Guard; g != nil {
		fmt.Printf("guard: %d corrupt frames rejected, %d values scrubbed (%d gradients withheld), %d anomalies (%d clips, %d skipped updates, %d rollbacks), %d drift checks (%d forced re-syncs)\n",
			g.CorruptFrames, g.ScrubbedValues, g.SkippedGradients, g.Anomalies, g.Clips, g.SkippedUpdates, g.Rollbacks, g.DriftChecks, g.DriftResyncs)
	}
	if *alpha && len(res.Alpha) > 0 {
		e := stats.NewECDF(res.Alpha)
		fmt.Printf("alpha (Assumption 3.2): median %.3f, p95 %.3f, max %.3f\n",
			e.Quantile(0.5), e.Quantile(0.95), e.Quantile(1))
	}
	if *trace && len(res.Trace) > 0 {
		fmt.Println("\nper-iteration breakdown (first 10):")
		tt := &stats.Table{Headers: []string{"iter", "compute ms", "codec ms", "comm ms", "msg KB"}}
		for i, tr := range res.Trace {
			if i >= 10 {
				break
			}
			tt.AddRow(tr.Iter, tr.ComputeS*1e3, tr.CompressS*1e3, tr.CommS*1e3, float64(tr.MsgBytes)/1024)
		}
		fmt.Print(tt.String())
	}
}

// runServe runs the multi-tenant job service: the job API and the
// process telemetry endpoints share one mux and one listener. SIGINT or
// SIGTERM drains gracefully — admission closes, running jobs halt at an
// iteration boundary, their checkpoints spool to -spool, and the HTTP
// server shuts down once in-flight requests finish.
func runServe(addr string, cfg serve.Config) {
	if addr == "" {
		addr = ":9090"
	}
	if cfg.SpoolDir != "" {
		if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	srv := serve.New(cfg)
	mux := http.NewServeMux()
	reg := telemetry.NewRegistry()
	buildinfo.Register(reg)
	mux.Handle("/", reg.Handler())
	srv.Routes(mux)
	bound, shutdown, err := telemetry.ServeHandler(addr, mux)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("job service: http://%s/jobs (%d worker slots, queue %d)\n", bound, cfg.WorkerSlots, cfg.MaxQueue)

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	<-sigCh
	fmt.Println("draining: no new jobs; halting running jobs at their next iteration boundary")
	go func() { // second signal skips the drain
		<-sigCh
		os.Exit(130)
	}()
	for _, d := range srv.Drain() {
		if d.Spool != "" {
			fmt.Printf("spooled %s -> %s (resume with {\"resume_from\": %q})\n", d.ID, d.Spool, d.Spool)
		}
	}
	_ = shutdown()
}

// flightPath derives the flight-recorder dump path from the trace
// output path: trace.json -> trace.flight.json.
func flightPath(traceOut string) string {
	ext := filepath.Ext(traceOut)
	return strings.TrimSuffix(traceOut, ext) + ".flight" + ext
}

// mergedPath derives the merged multi-process timeline path from the
// trace output path: trace.json -> trace.merged.json.
func mergedPath(traceOut string) string {
	ext := filepath.Ext(traceOut)
	return strings.TrimSuffix(traceOut, ext) + ".merged" + ext
}

func buildCompressor(method string, theta float64) (func() compress.Compressor, error) {
	if _, err := compress.New(method, theta); err != nil {
		return nil, err
	}
	return func() compress.Compressor {
		c, err := compress.New(method, theta)
		if err != nil {
			panic(err) // validated above
		}
		return c
	}, nil
}
