package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"fftgrad/internal/dist"
)

const replayBlocks = warmBlocks + 25 // 100 timed iterations

// tracedPlan says what a traced run measures. The real plan is fixed
// (tracedDefault); the self-test shrinks it.
type tracedPlan struct {
	blocks     int      // replay and reference-run length, warm-up included
	captureAt  int      // iteration whose rank-0 gradient the ledger runs on
	kernelOn   workload // the kernel ledger runs on this workload's gradient
	overheadOn workload // the feature-overhead pairs run on this workload
	tracePath  string   // Chrome trace output; "" writes none
}

func tracedDefault(w workload, seed int64) tracedPlan {
	kernelOn, _ := findWorkload("wide_fft")
	overheadOn, _ := findWorkload("wide_fp32")
	return tracedPlan{
		blocks: replayBlocks, captureAt: 50, kernelOn: kernelOn, overheadOn: overheadOn,
		tracePath: filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, seed)),
	}
}

// tracedReport is what a traced child observed: the per-layer metrics
// and the violations of the replay's own checks.
type tracedReport struct {
	Metrics   map[string]metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Err       string            `json:"err,omitempty"`
}

// exactLoss reports whether the replay must reproduce dist.Train's block
// losses bit for bit: the monolithic barrier workloads. The bucketed
// pipeline and the cluster mesh run the same arithmetic too, but the
// benchmark only holds them to 1%.
func (w workload) exactLoss() bool { return !w.fault && w.bucket == 0 }

// runTraced runs dist.Train untraced for the reference, the traced
// replay of the same blocks, and the ledger.
func runTraced(w workload, seed int64, plan tracedPlan) *tracedReport {
	rep := &tracedReport{Metrics: map[string]metric{}, Attempted: plan.blocks * blockIters}
	l := ledger(rep.Metrics)
	fatal := func(err error) *tracedReport {
		rep.Err = err.Error()
		rep.Failed = rep.Attempted
		return rep
	}
	fail := func(format string, a ...any) { rep.Problems = append(rep.Problems, fmt.Sprintf(format, a...)) }

	// Reference: the same blocks through dist.Train, observability off.
	train := w.data(seed)
	cfg := w.config(seed, train)
	cfg.Epochs = plan.blocks
	var ts []time.Time
	cfg.OnEpoch = func(dist.EpochStats) { ts = append(ts, time.Now()) }
	ref, err := dist.Train(cfg)
	if err != nil {
		return fatal(fmt.Errorf("reference dist.Train: %w", err))
	}
	var refBlocks, refIter []float64
	for i := warmBlocks; i < len(ts); i++ {
		ms := ts[i].Sub(ts[i-1]).Seconds() * 1e3
		refBlocks = append(refBlocks, ms)
		refIter = append(refIter, ms/blockIters)
	}
	refBest := quietest(refBlocks, quietBlocks) / quietIters
	l.put("dist.iter_ms_best20", refBest, "ms")
	l.put("dist.iter_ms_p50", median(refIter), "ms")
	l.put("dist.iter_ms_p90", percentile(refIter, 0.9), "ms")

	rp, err := runReplay(w, seed, plan.blocks, train, plan.captureAt)
	if err != nil {
		return fatal(err)
	}
	if plan.tracePath != "" {
		if err := os.MkdirAll(filepath.Dir(plan.tracePath), 0o755); err != nil {
			return fatal(err)
		}
		if err := writeChromeTrace(plan.tracePath, rp.Tracks); err != nil {
			return fatal(err)
		}
	}

	// Same arithmetic, so same losses.
	if len(rp.BlockLoss) != len(ref.Epochs) {
		fail("replay ran %d blocks, dist.Train %d", len(rp.BlockLoss), len(ref.Epochs))
	} else {
		for b, e := range ref.Epochs {
			got, want := rp.BlockLoss[b], e.TrainLoss
			if w.exactLoss() && got != want {
				fail("block %d: replay loss %v differs from dist.Train's %v", b, got, want)
				break
			}
			if math.Abs(got-want) > 0.01*math.Abs(want) {
				fail("block %d: replay loss %v is not within 1%% of dist.Train's %v", b, got, want)
				break
			}
		}
	}
	if rp.MsgBytes != ref.AvgMsgBytes {
		fail("replay sent %v bytes per iteration, dist.Train %v", rp.MsgBytes, ref.AvgMsgBytes)
	}
	for _, v := range rp.BlockLoss {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fail("non-finite replay loss")
			rep.Failed = rep.Attempted
			break
		}
	}
	l.put("replay.loss_mean", mean(rp.BlockLoss[warmBlocks:]), "nats")

	// The ledger closes when the layers' self times add up to the
	// replayed iteration, both read over the same stretch. The replay is
	// held to dist.Train by its losses above and by replay.overhead_ms.
	replayIter, layerSum := layerMetrics(l, rp, plan.blocks*blockIters)
	l.put("replay.iter_ms_best20", replayIter, "ms")
	l.put("replay.overhead_ms", replayIter-refBest, "ms")
	residual := 100 * (replayIter - layerSum) / replayIter
	l.put("reconcile.residual_pct", residual, "%")
	if w.exactLoss() && math.Abs(residual) > 15 {
		fail("the layers leave %.1f%% of the replayed iteration unexplained, beyond the 15%% bound", residual)
	}
	if w.stressShare > 0 {
		share := 0.0
		for _, name := range w.stress {
			share += l[name].Value
		}
		if share /= replayIter; share < w.stressShare {
			fail("%v take %.0f%% of the replayed iteration, want at least %.0f%%", w.stress, 100*share, 100*w.stressShare)
		}
	}

	n := ref.GradSize
	l.put("compress.wire_bytes", rp.MsgBytes, "B")
	ratio := float64(4*n) / rp.MsgBytes
	l.put("compress.ratio", ratio, "ratio")
	if w.lossless() && ratio != 1 {
		fail("compress.ratio %.4f on the FP32 workload, want exactly 1", ratio)
	}
	if !w.lossless() && ratio < 10 {
		fail("compress.ratio %.2f below 10 on a sparsifying workload", ratio)
	}
	allocs, err := roundTripAllocs(w, rp.Grad)
	if err != nil {
		return fatal(err)
	}
	l.put("compress.allocs_per_roundtrip", allocs, "count")
	l.put("cluster.retries", float64(rp.Cluster.Retries), "count")
	l.put("cluster.degraded_iters", float64(rp.Cluster.DegradedIterations), "count")

	kgrad := rp.Grad
	if w.name != plan.kernelOn.name {
		k := plan.kernelOn
		kr, err := runReplay(k, seed, plan.captureAt/blockIters+1, k.data(seed), plan.captureAt)
		if err != nil {
			return fatal(fmt.Errorf("capturing the %s gradient: %w", k.name, err))
		}
		kgrad = kr.Grad
	}
	if err := kernelLedger(l, kgrad); err != nil {
		return fatal(err)
	}
	if err := commLedger(l, int(l["compress.fft.wire_bytes"].Value), 4*len(kgrad)); err != nil {
		return fatal(err)
	}
	fabricLedger(l, int(math.Round(rp.MsgBytes)))
	if err := psLedger(l, w, seed, train); err != nil {
		return fatal(err)
	}
	if err := serveLedger(l); err != nil {
		return fatal(err)
	}
	if err := overheadLedger(l, plan.overheadOn, seed); err != nil {
		return fatal(err)
	}
	return rep
}

// layerMetrics turns the spans into the per-layer metrics. It reads them
// over the quietest quietIters consecutive timed iterations of rank 0
// (the stretch the machine disturbed least, two full sync periods long),
// as means per iteration, so a layer that runs every tenth iteration is
// amortised. It returns the replayed iteration time over that stretch and
// how much of it the layers' self times explain.
func layerMetrics(l ledger, rp *replayResult, iters int) (iterMs, layerSum float64) {
	spans := rp.Tracks[0].spans
	self := selfTimes(spans)
	warm := warmBlocks * blockIters
	whole := layerPerIter(spans, durations(spans), warm, iters, spIter)
	from := warm
	for s, best := 0, math.Inf(1); s+quietIters <= len(whole); s++ {
		if sum := mean(whole[s : s+quietIters]); sum < best {
			best, from = sum, warm+s
		}
	}
	to := from + quietIters
	avg := func(names ...string) float64 { return mean(layerPerIter(spans, self, from, to, names...)) }

	put := func(name string, v float64) {
		l.put(name, v, "ms")
		layerSum += v
	}
	put("data.batch_ms", avg(spBatch))
	put("nn.fwd_bwd_ms", avg(spFwdBwd))
	put("compress.encode_ms", avg(spEncode))
	put("compress.decode_avg_ms", avg(spDecode, spAverage))
	put("guard.scrub_ms", avg(spScrub))
	put("guard.frame_ms", avg(spFrame))
	put("guard.verify_ms", avg(spVerify))
	put("guard.detect_ms", avg(spDetect, spFP))
	put("optim.step_ms", avg(spStep))
	put("dist.sync_ms", avg(spSync))
	put("checkpoint.capture_ms", avg(spCapture))
	// Rank 0's own time inside the exchange, waiting included, is what
	// its iteration paid.
	layerSum += avg(spAllgather, spCluster)

	// Across ranks, an exchange costs what the rank that arrived last
	// spent in it (it waited for nobody); the rest of the longest stay
	// is waiting.
	exchange := func(name string) (cost, wait float64) {
		lo := layerPerIter(spans, self, from, to, name)
		hi := append([]float64(nil), lo...)
		for _, t := range rp.Tracks[1:] {
			for i, v := range layerPerIter(t.spans, durations(t.spans), from, to, name) {
				lo[i], hi[i] = min(lo[i], v), max(hi[i], v)
			}
		}
		return mean(lo), mean(hi) - mean(lo)
	}
	c, wt := exchange(spAllgather)
	l.put("collective.exchange_ms", c, "ms")
	l.put("collective.wait_ms", wt, "ms")
	l.put("collective.calls_per_iter", mean(countPerIter(spans, from, to, spAllgather)), "count")
	c, wt = exchange(spCluster)
	l.put("cluster.exchange_ms", c, "ms")
	l.put("cluster.wait_ms", wt, "ms")

	return mean(whole[from-warm : to-warm]), layerSum
}
