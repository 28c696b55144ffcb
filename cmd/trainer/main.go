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
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"fftgrad/internal/buildinfo"
	"fftgrad/internal/checkpoint"
	"fftgrad/internal/dist"
	"fftgrad/internal/netsim"
	"fftgrad/internal/obs"
	"fftgrad/internal/serve"
	"fftgrad/internal/stats"
	"fftgrad/internal/telemetry"
	itrace "fftgrad/internal/trace"
)

func main() { os.Exit(run(os.Args, os.Stdout, os.Stderr)) }

// options is the process half of the command line: how this run is
// observed, or that the process is a job service instead.
type options struct {
	alpha, trace, pprof, profile, top, serve bool
	metricsAddr, traceOut, profileOut, spool string
	traceIters, pool, queue                  int
}

// parseArgs splits the command line (args[0] is the program name) into
// the job description and the process options. Like the flag package it
// has already reported on stderr any error it returns.
func parseArgs(args []string, stderr io.Writer) (spec serve.Spec, opt options, err error) {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)

	// The job description: these flags bind onto the same serve.Spec a
	// POST /jobs body decodes into. The service's defaults table runs
	// first, so it decides only the fields no flag sets (momentum,
	// backend, sync_every); every flag's own default overwrites the rest,
	// and an explicit zero such as -theta 0 stays zero.
	spec.FillDefaults()
	spec.GuardCRC, spec.Chaos = new(bool), &serve.ChaosSpec{}
	ch := spec.Chaos
	fs.StringVar(&spec.Method, "method", "fft", "fp32 | fft | dct | topk | qsgd | terngrad")
	fs.Float64Var(&spec.Theta, "theta", 0.85, "drop ratio for fft/topk")
	fs.IntVar(&spec.DropEpoch, "drop-epoch", -1, "epoch at which theta drops to 0 (-1: never)")
	fs.IntVar(&spec.Workers, "workers", 4, "number of BSP workers")
	fs.IntVar(&spec.Epochs, "epochs", 4, "training epochs")
	fs.IntVar(&spec.Batch, "batch", 16, "per-worker batch size")
	fs.IntVar(&spec.Samples, "samples", 2048, "training samples")
	fs.IntVar(&spec.Classes, "classes", 8, "number of classes")
	fs.StringVar(&spec.Model, "model", "cnn", "cnn | mlp")
	fs.Float64Var(&spec.LR, "lr", 0.03, "learning rate")
	fs.Int64Var(&spec.Seed, "seed", 1, "random seed")
	fs.StringVar(&spec.Collective, "collective", "ring", "exchange strategy: ring | hier | tree | gossip (gossip implies -fault-aware)")
	fs.IntVar(&spec.GroupSize, "group-size", 4, "with -collective hier, ranks per group (leader fan-in)")
	fs.IntVar(&spec.BucketBytes, "bucket-bytes", 0, "split the gradient into fixed-byte buckets exchanged in flight while later buckets compress (0: monolithic)")
	fs.BoolVar(&spec.Adapt, "adapt", false, "let the online perf-model controller bypass compression when it cannot win on the fabric")
	fs.BoolVar(&spec.AdaptTheta, "adapt-theta", false, "with -adapt, also let the controller steer theta toward the beneficial ratio")

	// Failure-aware runtime (internal/cluster) + chaos injection.
	fs.BoolVar(&spec.Fault, "fault-aware", false, "exchange through the failure-aware cluster runtime (heartbeats, retry, degradation, rejoin)")
	fs.DurationVar((*time.Duration)(&spec.HeartbeatMS), "heartbeat", 2*time.Millisecond, "with -fault-aware, heartbeat period")
	fs.DurationVar((*time.Duration)(&spec.SuspectAfterMS), "suspect-after", 0, "with -fault-aware, silence before a peer is suspected dead (0: 50x heartbeat)")
	fs.IntVar(&spec.MaxRetries, "max-retries", 5, "with -fault-aware, nack/resend rounds per exchange before classifying the absentee")
	fs.StringVar(&spec.OnFailure, "on-failure", "rescale", "with -fault-aware, dead-rank policy: failfast | rescale | stale")
	fs.StringVar(&spec.OnStraggler, "on-straggler", "wait", "with -fault-aware, straggler policy: wait | drop")
	fs.IntVar(&spec.Staleness, "staleness", 0, "with -fault-aware, bounded-staleness window K in iterations: ranks run up to K ahead, late gradients fold in damped (0: strict BSP)")
	fs.Float64Var(&spec.StalenessDiscount, "staleness-discount", 0.9, "with -staleness, per-iteration damping factor applied to stale gradients")
	elasticJoin := fs.String("elastic-join", "", "comma-separated iterations at which brand-new ranks join mid-run (implies -fault-aware; e.g. 10,20)")
	fs.Float64Var(&ch.Drop, "chaos-drop", 0, "chaos: per-message drop probability (enables fault injection)")
	fs.DurationVar((*time.Duration)(&ch.DelayMS), "chaos-delay", 0, "chaos: max injected message delay")
	fs.Float64Var(&ch.DelayProb, "chaos-delay-prob", 0.1, "chaos: probability a message is delayed (with -chaos-delay)")
	fs.Float64Var(&ch.Dup, "chaos-dup", 0, "chaos: per-message duplication probability")
	chaosCrash := fs.Int("chaos-crash", -1, "chaos: rank to crash mid-run (-1: none)")
	fs.Uint64Var(&ch.CrashAtOp, "chaos-crash-at", 1000, "chaos: crash at this transport-op index")
	fs.Uint64Var(&ch.RecoverAfterOps, "chaos-crash-for", 1000, "chaos: recover after this many ops (0: never)")
	fs.Float64Var(&ch.Corrupt, "chaos-corrupt", 0, "chaos: per-message single-bit-flip probability")
	chaosStraggle := fs.Int("chaos-straggle", -1, "chaos: rank made persistently slow, never dead (-1: none)")
	fs.DurationVar((*time.Duration)(&ch.StraggleByMS), "chaos-straggle-by", 20*time.Millisecond, "chaos: per-send delivery delay of the straggling rank")
	fs.Uint64Var(&ch.StraggleAtOp, "chaos-straggle-at", 0, "chaos: transport-op index at which the straggle window opens")
	fs.Uint64Var(&ch.StraggleOps, "chaos-straggle-for", 0, "chaos: ops until the straggler recovers (0: never)")
	fs.Int64Var(&ch.Seed, "chaos-seed", 1, "chaos: fault-schedule seed")

	// Gradient integrity guard (internal/guard).
	fs.BoolVar(&spec.Guard, "guard", false, "enable the gradient integrity guard (CRC framing, scrub, anomaly detector, drift checks)")
	fs.BoolVar(spec.GuardCRC, "guard-crc", true, "with -guard, CRC32C-frame every compressed gradient message")
	fs.StringVar(&spec.GuardScrub, "guard-scrub", "clamp", "with -guard, non-finite gradient policy: off | clamp | skip")
	fs.IntVar(&spec.GuardDriftEvery, "guard-drift-every", 50, "with -guard, iterations between cross-rank parameter fingerprint checks (0: off)")
	fs.IntVar(&spec.GuardRollbackAfter, "guard-rollback-after", 6, "with -guard, consecutive anomalies before auto-rollback")

	fs.BoolVar(&opt.alpha, "alpha", false, "measure Assumption 3.2 alpha each iteration")
	fs.BoolVar(&opt.trace, "trace", false, "print a per-iteration timing breakdown")
	fs.StringVar(&opt.metricsAddr, "metrics-addr", "", "serve live Prometheus/JSON metrics on this address (e.g. :9090)")
	fs.StringVar(&opt.traceOut, "trace-out", "", "record a per-iteration distributed timeline and write it here as Chrome trace_event JSON (open in ui.perfetto.dev)")
	fs.IntVar(&opt.traceIters, "trace-iters", 256, "with -trace-out, iterations of history the per-rank trace ring retains")
	fs.BoolVar(&opt.pprof, "pprof", false, "with -metrics-addr, also serve net/http/pprof under /debug/pprof/")
	fs.BoolVar(&opt.profile, "profile", false, "enable the cross-rank iteration profiler: critical paths, straggler blame, anomaly-triggered capture")
	fs.StringVar(&opt.profileOut, "profile-out", "", "write the end-of-run iteration profile here as JSON (implies -profile)")
	fs.BoolVar(&opt.top, "top", false, "live per-rank blame / critical-path table on stderr while training runs (implies -profile)")
	fs.BoolVar(&opt.serve, "serve", false, "run as a multi-tenant training job service instead of a one-shot run (HTTP job API on -metrics-addr, default :9090)")
	fs.IntVar(&opt.pool, "pool", 8, "with -serve, worker slots in the shared scheduling pool")
	fs.IntVar(&opt.queue, "queue", 16, "with -serve, maximum queued jobs before submissions get 429")
	fs.StringVar(&opt.spool, "spool", "spool", "with -serve, directory for drain-time job checkpoints (\"\" disables spooling)")
	if err := fs.Parse(args[1:]); err != nil {
		return spec, opt, err
	}

	// The three job flags whose values a flag cannot hold directly: the
	// join list, and the two "-1: none" ranks (absent in the Spec).
	if *elasticJoin != "" {
		for _, tok := range strings.Split(*elasticJoin, ",") {
			at, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || at < 0 {
				err = fmt.Errorf("bad -elastic-join entry %q", tok)
				fmt.Fprintln(stderr, err)
				return spec, opt, err
			}
			spec.ElasticJoins = append(spec.ElasticJoins, at)
		}
	}
	if *chaosCrash >= 0 {
		ch.CrashRank = chaosCrash
	}
	if *chaosStraggle >= 0 {
		ch.StraggleRank = chaosStraggle
	}
	if ch.Drop == 0 && ch.DelayMS == 0 && ch.Dup == 0 && ch.Corrupt == 0 && ch.CrashRank == nil && ch.StraggleRank == nil {
		spec.Chaos = nil // no fault asked for: no chaos layer, and no implied -fault-aware
	}
	return spec, opt, nil
}

// run is main with its process edges as parameters; the return value is
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	spec, opt, err := parseArgs(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if opt.serve {
		return runServe(stdout, stderr, opt.metricsAddr, serve.Config{
			WorkerSlots: opt.pool,
			MaxQueue:    opt.queue,
			SpoolDir:    opt.spool,
		})
	}

	// One compiler for both surfaces; what follows only overlays what
	// belongs to this process rather than to the job.
	var cfg dist.Config
	if err = spec.Validate(); err == nil {
		cfg, err = spec.Config()
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg.MeasureAlpha = opt.alpha
	if opt.metricsAddr != "" && cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if cfg.Fault != nil && cfg.Fault.Chaos != nil {
		fmt.Fprintf(stdout, "chaos schedule: %s\n", cfg.Fault.Chaos)
	}
	ranks := cfg.Tracks()
	var tracer *itrace.Tracer
	if opt.traceOut != "" {
		tracer = itrace.New(ranks, opt.traceIters*itrace.DefaultEventsPerIteration)
		cfg.Tracer = tracer
		cfg.Flight = itrace.NewFlightRecorder(tracer, flightPath(opt.traceOut))
		defer func() {
			if r := recover(); r != nil {
				cfg.Flight.Trigger(0, itrace.ReasonPanic)
				panic(r)
			}
		}()
	}
	// -trace prints its table from the profiler's records; prof is set
	// only when the profiler's own outputs (ledger, captures, endpoints)
	// are asked for.
	if opt.trace || opt.profile || opt.profileOut != "" || opt.top {
		cfg.Profiler = obs.New(ranks, 0)
	}
	var prof *obs.Profiler
	var stopCapture func()
	if opt.profile || opt.profileOut != "" || opt.top {
		prof = cfg.Profiler
		if cfg.Telemetry == nil {
			// The profiler's rolling blame percentiles live in telemetry
			// histograms; give it a registry even without -metrics-addr.
			cfg.Telemetry = telemetry.NewRegistry()
		}
		// Anomaly captures (pprof CPU window + flight dump + cross-link)
		// land next to the profile output, else the trace output, else cwd.
		capDir := "."
		switch {
		case opt.profileOut != "":
			capDir = filepath.Dir(opt.profileOut)
		case opt.traceOut != "":
			capDir = filepath.Dir(opt.traceOut)
		}
		stopCapture = prof.EnableCapture(obs.CaptureConfig{Dir: capDir, Flight: cfg.Flight})
	}
	var draining atomic.Bool // flips /readyz once a halt is requested
	if opt.metricsAddr != "" {
		mux := http.NewServeMux()
		buildinfo.Register(cfg.Telemetry)
		mux.Handle("/", cfg.Telemetry.Handler())
		if tracer != nil {
			mux.Handle("/trace", tracer.Handler())
		}
		if opt.pprof {
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
		telemetry.Probes(mux, func() bool { return !draining.Load() })
		bound, shutdown, err := telemetry.ServeHandler(opt.metricsAddr, mux)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() { _ = shutdown() }()
		fmt.Fprintf(stdout, "metrics: http://%s/metrics (Prometheus) and /metrics.json\n", bound)
		if tracer != nil {
			fmt.Fprintf(stdout, "trace:   http://%s/trace (Chrome trace_event JSON)\n", bound)
		}
		if opt.pprof {
			fmt.Fprintf(stdout, "pprof:   http://%s/debug/pprof/\n", bound)
		}
		if prof != nil {
			fmt.Fprintf(stdout, "profile: http://%s/profile (critical paths, blame ledger) and /debug/status\n", bound)
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
	done := make(chan struct{}) // closed when run returns: releases the watcher
	defer close(done)
	go func() {
		select {
		case <-sigCh:
		case <-done:
			return
		}
		fmt.Fprintln(stderr, "signal: halting at the next iteration boundary (send again to force quit)")
		draining.Store(true)
		close(stopCh)
		select {
		case <-sigCh:
			os.Exit(130)
		case <-done:
		}
	}()

	fmt.Fprintf(stdout, "training %s with %s (θ=%.2f) on %d workers\n", spec.Model, spec.Method, spec.Theta, spec.Workers)
	var stopTop func()
	if opt.top {
		topStop := make(chan struct{})
		topDone := make(chan struct{})
		go func() {
			prof.Top(stderr, topStop)
			close(topDone)
		}()
		stopTop = func() {
			close(topStop)
			<-topDone
			fmt.Fprintln(stderr)
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
			merr = checkpoint.WriteBytesAtomic(opt.traceOut, data)
		}
		if merr != nil {
			fmt.Fprintf(stderr, "trace dump failed: %v\n", merr)
		} else {
			fmt.Fprintf(stdout, "trace: wrote %s (%d bytes; open in ui.perfetto.dev)\n", opt.traceOut, len(data))
		}
		if prof != nil {
			// The clock-aligned multi-process view: every rank's ring merged
			// into one timeline, re-based by the profiler's offset estimates.
			var buf bytes.Buffer
			if merr := tracer.WriteMergedJSON(&buf, prof.Offsets()); merr == nil {
				mp := mergedPath(opt.traceOut)
				if werr := checkpoint.WriteBytesAtomic(mp, buf.Bytes()); werr != nil {
					fmt.Fprintf(stderr, "merged trace dump failed: %v\n", werr)
				} else {
					fmt.Fprintf(stdout, "trace: wrote %s (clock-aligned multi-process view)\n", mp)
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
			fmt.Fprintf(stdout, "profile: top blamed rank %d (%.0f%% of %.3fs blocked time over %d iterations)\n",
				topRank, 100*topFrac, float64(doc.Summary.TotalBlockedNs)/1e9, doc.Summary.Iterations)
		}
		if n := len(doc.Captures); n > 0 {
			fmt.Fprintf(stdout, "profile: %d anomaly capture(s) written: pprof CPU window + flight dump, cross-linked by iteration\n", n)
		}
		if opt.profileOut != "" {
			data, merr := json.MarshalIndent(&doc, "", "  ")
			if merr == nil {
				merr = checkpoint.WriteBytesAtomic(opt.profileOut, data)
			}
			if merr != nil {
				fmt.Fprintf(stderr, "profile dump failed: %v\n", merr)
			} else {
				fmt.Fprintf(stdout, "profile: wrote %s (%d bytes)\n", opt.profileOut, len(data))
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if res.Halted {
		fmt.Fprintf(stdout, "halted by signal after %d iterations\n", res.Iterations)
	}
	t := &stats.Table{Headers: []string{"epoch", "train loss", "test acc", "lr", "theta"}}
	for _, ep := range res.Epochs {
		var theta any = ep.Theta
		if math.IsNaN(ep.Theta) {
			theta = "-" // the codec has no drop ratio (fp32, qsgd, terngrad)
		}
		t.AddRow(ep.Epoch, ep.TrainLoss, ep.TestAcc, ep.LR, theta)
	}
	fmt.Fprint(stdout, t.String())
	fmt.Fprintf(stdout, "\ngradient size: %d floats (%.2f MB)\n", res.GradSize, float64(res.GradSize*4)/(1<<20))
	if res.CompressionRatio > 0 {
		fmt.Fprintf(stdout, "compression ratio: %.2fx (avg message %.1f KB)\n", res.CompressionRatio, res.AvgMsgBytes/1024)
	} else {
		fmt.Fprintln(stdout, "compression ratio: n/a (nothing was sent)")
	}
	fmt.Fprintf(stdout, "measured compute %.2fs, compress %.2fs; modeled comm %.4fs (measured exchange %.4fs)\n",
		res.ComputeSeconds, res.CompressSeconds, res.CommSeconds, res.CommMeasuredSeconds)
	var rec netsim.Reconciliation
	rec.Add(res.CommSeconds, res.CommMeasuredSeconds)
	if rec.Samples() > 0 {
		fmt.Fprintf(stdout, "fabric reconciliation: in-process exchange ran %.2fx the modeled fabric time\n", rec.Ratio())
	}
	if cfg.Adapt != nil {
		d := cfg.Adapt.Last()
		fmt.Fprintf(stdout, "adapt: bypassed %d iterations, %d flips; last k_min %.2f at Tcomm %.1f MB/s (ratio %.2f)\n",
			res.BypassedIterations, cfg.Adapt.Flips(), d.KMin, d.Tcomm/1e6, d.Ratio)
	}
	if res.Telemetry != nil {
		fmt.Fprintln(stdout, "live stage throughput (MB/s):")
		for _, s := range []string{"tm", "tf", "tp", "ts", "comm"} {
			if v := res.Telemetry[`fftgrad_stage_throughput_bytes_per_second{stage="`+s+`"}`]; v > 0 {
				fmt.Fprintf(stdout, "  %-4s %10.1f\n", s, v/1e6)
			}
		}
	}
	if res.Fault != nil {
		s := res.Fault.Cluster
		fmt.Fprintf(stdout, "fault runtime: %d retries, %d suspicions, %d degraded iters, %d stale reuses, %d rejoins, %d skipped syncs, %d/%d ranks alive at end\n",
			s.Retries, s.Suspicions, s.DegradedIterations, s.StaleReuses, s.Rejoins, s.SkippedSyncs, s.FinalAlive, ranks)
		if s.ElasticJoins > 0 || s.GossipRounds > 0 || s.StalenessMax > 0 {
			fmt.Fprintf(stdout, "elasticity: %d elastic joins, %d gossip rounds, max folded staleness %d seqs\n",
				s.ElasticJoins, s.GossipRounds, s.StalenessMax)
		}
		if res.Fault.LostWorkers > 0 {
			fmt.Fprintf(stdout, "fault runtime: %d worker(s) permanently lost; run completed degraded\n", res.Fault.LostWorkers)
		}
		if c := res.Fault.Chaos; c != nil {
			fmt.Fprintf(stdout, "chaos injected: %d drops, %d delays, %d dups, %d corruptions, %d crashed ops, %d partitioned, %d straggled ops\n",
				c.Drops, c.Delays, c.Dups, c.Corruptions, c.CrashedOps, c.Partitioned, c.StraggledOps)
		}
	}
	if g := res.Guard; g != nil {
		fmt.Fprintf(stdout, "guard: %d corrupt frames rejected, %d values scrubbed (%d gradients withheld), %d anomalies (%d clips, %d skipped updates, %d rollbacks), %d drift checks (%d forced re-syncs)\n",
			g.CorruptFrames, g.ScrubbedValues, g.SkippedGradients, g.Anomalies, g.Clips, g.SkippedUpdates, g.Rollbacks, g.DriftChecks, g.DriftResyncs)
	}
	if opt.alpha && len(res.Alpha) > 0 {
		e := stats.NewECDF(res.Alpha)
		fmt.Fprintf(stdout, "alpha (Assumption 3.2): median %.3f, p95 %.3f, max %.3f\n",
			e.Quantile(0.5), e.Quantile(0.95), e.Quantile(1))
	}
	if recs := cfg.Profiler.Records(0); opt.trace && len(recs) > 0 {
		fmt.Fprintln(stdout, "\nper-iteration breakdown (first 10):")
		tt := &stats.Table{Headers: []string{"iter", "compute ms", "codec ms", "exchange ms", "msg KB"}}
		for _, r := range recs[:min(len(recs), 10)] {
			tt.AddRow(r.Iter, float64(r.ComputeNs+r.UpdateNs)/1e6, float64(r.CompressNs+r.DecompressNs)/1e6,
				float64(r.ExchangeNs)/1e6, float64(r.MsgBytes)/1024)
		}
		fmt.Fprint(stdout, tt.String())
	}
	return 0
}

// runServe runs the multi-tenant job service: the job API and the
// process telemetry endpoints share one mux and one listener. SIGINT or
// SIGTERM drains gracefully — admission closes, running jobs halt at an
// iteration boundary, their checkpoints spool to -spool, and the HTTP
// server shuts down once in-flight requests finish.
func runServe(stdout, stderr io.Writer, addr string, cfg serve.Config) int {
	if addr == "" {
		addr = ":9090"
	}
	if cfg.SpoolDir != "" {
		if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
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
		fmt.Fprintln(stderr, err)
		return 1
	}
	// Listening for the signal before announcing the address: whoever
	// reads the announcement may signal at once.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	fmt.Fprintf(stdout, "job service: http://%s/jobs (%d worker slots, queue %d)\n", bound, cfg.WorkerSlots, cfg.MaxQueue)
	<-sigCh
	fmt.Fprintln(stdout, "draining: no new jobs; halting running jobs at their next iteration boundary")
	done := make(chan struct{}) // closed on return: releases the watcher
	defer close(done)
	go func() { // second signal skips the drain
		select {
		case <-sigCh:
			os.Exit(130)
		case <-done:
		}
	}()
	for _, d := range srv.Drain() {
		if d.Spool != "" {
			fmt.Fprintf(stdout, "spooled %s -> %s (resume with {\"resume_from\": %q})\n", d.ID, d.Spool, d.Spool)
		}
	}
	_ = shutdown()
	return 0
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
