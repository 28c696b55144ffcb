package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"fftgrad/internal/dist"
)

// e2eReport is what one untraced child observed through dist.Train. The
// parent turns it into the end-to-end metrics with deriveE2E.
type e2eReport struct {
	SetupS    float64   `json:"setup_s"`    // spawn -> first timed block
	WarmLoss  []float64 `json:"warm_loss"`  // rank-0 loss of the warm-up blocks
	BlockMs   []float64 `json:"block_ms"`   // wall time of each timed block
	BlockCPU  []float64 `json:"block_cpu"`  // user+sys ms of each timed block
	BlockLoss []float64 `json:"block_loss"` // rank-0 loss of each timed block
	WallS     float64   `json:"wall_s"`     // timed window
	CPUS      float64   `json:"cpu_s"`      // user+sys over the timed window
	Mallocs   uint64    `json:"mallocs"`    // heap allocations over the timed window
	MaxRSSKB  int64     `json:"max_rss_kb"` // child peak RSS
	MsgBytes  float64   `json:"msg_bytes"`  // Result.AvgMsgBytes
	Ratio     float64   `json:"ratio"`      // Result.CompressionRatio
	Degraded  uint64    `json:"degraded"`   // FaultReport degraded iterations
	Lost      int       `json:"lost"`       // FaultReport.LostWorkers
	Err       string    `json:"err,omitempty"`
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func maxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss // kilobytes on Linux
}

// runE2E trains w through dist.Train with observability off and clocks
// it from the outside: rank 0's OnEpoch callback, once per block of
// blockIters iterations, is the only per-iteration clock Train exposes.
// The first warmBlocks blocks belong to set-up. The timed window then
// runs until both `seconds` have passed and minBlocks blocks completed,
// and ends the run through Config.Stop. With setupOnly the run ends
// where the timed window would begin.
func runE2E(w workload, seed int64, seconds float64, minBlocks int, spawn time.Time, setupOnly bool) *e2eReport {
	rep := &e2eReport{}
	cfg := w.config(seed, w.data(seed))
	stop := make(chan struct{})
	if setupOnly {
		cfg.Epochs = warmBlocks
	} else {
		cfg.Epochs = 1 << 20 // ended by stop
		cfg.Stop = stop
	}

	var ms runtime.MemStats
	var tStart, last time.Time
	var cpu0, cpuLast float64
	var mallocs0 uint64
	blocks, done := 0, false
	cfg.OnEpoch = func(s dist.EpochStats) {
		now := time.Now()
		blocks++
		if blocks <= warmBlocks {
			rep.WarmLoss = append(rep.WarmLoss, s.TrainLoss)
			if blocks == warmBlocks {
				runtime.ReadMemStats(&ms)
				mallocs0, cpu0 = ms.Mallocs, cpuSeconds()
				cpuLast = cpu0
				tStart = time.Now()
				last = tStart
				rep.SetupS = tStart.Sub(spawn).Seconds()
			}
			return
		}
		if done {
			return // the iteration that was in flight when stop closed
		}
		cpu := cpuSeconds()
		rep.BlockMs = append(rep.BlockMs, now.Sub(last).Seconds()*1e3)
		rep.BlockCPU = append(rep.BlockCPU, (cpu-cpuLast)*1e3)
		rep.BlockLoss = append(rep.BlockLoss, s.TrainLoss)
		last, cpuLast = now, cpu
		if len(rep.BlockMs) >= minBlocks && now.Sub(tStart).Seconds() >= seconds {
			rep.WallS = now.Sub(tStart).Seconds()
			rep.CPUS = cpu - cpu0
			runtime.ReadMemStats(&ms)
			rep.Mallocs = ms.Mallocs - mallocs0
			done = true
			close(stop)
		}
	}

	res, err := dist.Train(cfg)
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	rep.MaxRSSKB = maxRSSKB()
	rep.MsgBytes = res.AvgMsgBytes
	rep.Ratio = res.CompressionRatio
	if res.Fault != nil {
		rep.Degraded = res.Fault.Cluster.DegradedIterations
		rep.Lost = res.Fault.LostWorkers
	}
	return rep
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind the value
}

// e2eOutcome is the derived end-to-end view of one untraced run.
type e2eOutcome struct {
	Metrics   map[string]metric
	Attempted int
	Failed    int
	Problems  []string // correctness violations
}

// deriveE2E computes the end-to-end metrics, gated and recorded, from the
// measuring child's report and the set-up times of all children.
// planned is the iteration count a killed or failed child is charged.
func deriveE2E(w workload, rep *e2eReport, setups []float64, planned int) e2eOutcome {
	out := e2eOutcome{Metrics: map[string]metric{}}
	fail := func(format string, a ...any) { out.Problems = append(out.Problems, fmt.Sprintf(format, a...)) }

	iters := len(rep.BlockMs) * blockIters
	out.Attempted = iters
	if rep.Err != "" || iters == 0 {
		// Error, watchdog kill or nothing completed: every planned
		// iteration failed.
		out.Attempted, out.Failed = planned, planned
		fail("run failed: %s", rep.Err)
		out.Metrics["failed_share"] = metric{Value: 1, Unit: "ratio", N: planned}
		return out
	}
	for i, l := range rep.BlockLoss {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			// Non-finite from here on: the rest of the window is lost.
			out.Failed = (len(rep.BlockLoss) - i) * blockIters
			fail("non-finite loss at timed block %d", i)
			break
		}
	}
	if d := int(rep.Degraded); d > 0 || rep.Lost > 0 {
		fail("fault path degraded %d iterations, lost %d workers", d, rep.Lost)
		if rep.Lost > 0 {
			d = iters
		}
		if d > out.Failed {
			out.Failed = min(d, iters)
		}
	}

	perIter := make([]float64, len(rep.BlockMs))
	for i, b := range rep.BlockMs {
		perIter[i] = b / blockIters
	}
	fi := float64(iters)
	set := func(name string, v float64, unit string, n int) {
		if !math.IsNaN(v) && !math.IsInf(v, 0) { // not measured; JSON has no spelling for it either
			out.Metrics[name] = metric{Value: v, Unit: unit, N: n}
		}
	}
	set("iter_ms_best20", quietest(rep.BlockMs, quietBlocks)/quietIters, "ms", len(perIter)-quietBlocks+1)
	set("cpu_ms_best20", quietest(rep.BlockCPU, quietBlocks)/quietIters, "ms", len(perIter)-quietBlocks+1)
	set("iter_ms_p50", median(perIter), "ms", len(perIter))
	set("iter_ms_p90", percentile(perIter, 0.9), "ms", len(perIter))
	set("samples_per_s", fi*ranks*float64(w.batch)/rep.WallS, "1/s", iters)
	set("cpu_ms_per_iter", rep.CPUS*1e3/fi, "ms", iters)
	set("wire_bytes_per_iter", rep.MsgBytes, "B", iters)
	set("allocs_per_iter", float64(rep.Mallocs)/fi, "count", iters)
	set("peak_rss_mb", float64(rep.MaxRSSKB)/1024, "MB", 1)
	// Interference only adds time, so the least disturbed of the cold
	// set-ups is the estimate, as with the timed window's quietest stretch.
	set("setup_s", slices.Min(setups), "s", len(setups))
	set("failed_share", float64(out.Failed)/float64(out.Attempted), "ratio", out.Attempted)
	set("compress_ratio", rep.Ratio, "ratio", iters)

	if len(rep.BlockLoss) >= budgetBlocks {
		tail := rep.BlockLoss[budgetBlocks-lossTail/blockIters : budgetBlocks]
		lab := mean(tail)
		set("loss_at_budget", lab, "nats", lossTail)
		if first := rep.WarmLoss[0]; !(lab < 0.5*first) {
			fail("loss_at_budget %.4f is not below half the first-block loss %.4f", lab, first)
		}
	} else {
		fail("only %d timed blocks, loss_at_budget needs %d", len(rep.BlockLoss), budgetBlocks)
	}
	if c := rollingCross(rep.BlockLoss, rollBlocks, w.target); c > 0 {
		t := 0.0
		for _, b := range rep.BlockMs[:c] {
			t += b
		}
		set("time_to_target_s", t/1e3, "s", c)
	} else {
		fail("rolling loss never reached the target %.2f", w.target)
	}

	if w.lossless() && rep.Ratio != 1 {
		fail("compress ratio %.4f on the FP32 workload, want exactly 1", rep.Ratio)
	}
	if !w.lossless() && rep.Ratio < 10 {
		fail("compress ratio %.2f below 10 on a sparsifying workload", rep.Ratio)
	}
	return out
}
