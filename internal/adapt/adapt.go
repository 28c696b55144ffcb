// Package adapt closes the loop between live telemetry and the paper's
// Sec. 3.3 performance model: an online controller folds the measured
// per-stage throughputs (Tm, Tf, Tp, Ts) and the effective exchange rate
// into perfmodel every iteration and decides whether compression is
// worth running at all on the fabric the job is actually on.
//
// The paper evaluates Eq. 4 offline with Table 1's measured constants;
// here the same inequality runs against the EWMAs a telemetry.StageTimer
// maintains inside the pipeline, so the decision tracks the deployment:
// on a slow fabric (1 GbE) any plausible pipeline wins and compression
// stays on; on a fast local fabric (PCIe) Eq. 4's denominator goes
// non-positive — no ratio helps — and the controller bypasses to FP32,
// re-enabling automatically if the effective exchange rate degrades.
package adapt

import (
	"math"
	"sync"

	"fftgrad/internal/perfmodel"
	"fftgrad/internal/telemetry"
)

// The controller's fixed tuning.
const (
	// margin is the headroom multiplier applied to the minimal beneficial
	// ratio when targeting θ: the controller steers the achieved ratio
	// toward margin·k_min so the win survives model error.
	margin = 1.5
	// patience is how many consecutive contrary evaluations are needed
	// before flipping the compress/bypass state, damping oscillation when
	// the fabric sits near the break-even point.
	patience = 2
	// minSamples is the minimum number of StageComm observations (and of
	// pipeline-stage observations) before the controller trusts the
	// telemetry enough to act. Until then it keeps compressing, which is
	// also how it learns the pipeline rates in the first place.
	minSamples = 3
	// thetaMin and thetaMax clamp suggested θ.
	thetaMin, thetaMax = 0.5, 0.99
)

// Config selects the controller's behaviour.
type Config struct {
	// AdjustTheta enables θ suggestions: tighten θ (drop more) when the
	// achieved ratio is below margin·k_min, relax it when comfortably
	// above. Decisions carry the suggestion; dist applies it through the
	// compressor's ThetaSetter, composing with any schedule as a floor.
	AdjustTheta bool
}

// Decision is the controller's verdict for one iteration. Every rank
// asking about the same iteration receives the identical Decision (the
// first caller computes it, the rest read the cache), so all ranks agree
// on the wire format before any message is built.
type Decision struct {
	Iter int
	// Compress says whether to run the compressor (false = FP32 bypass).
	Compress bool
	// Ready reports whether enough telemetry existed to evaluate the
	// model; when false, Compress just carries the previous state.
	Ready bool
	// NoBeneficial is true when Eq. 4 had no solution: the pipeline is
	// too slow relative to the fabric for any ratio to help.
	NoBeneficial bool
	// KMin is the minimal beneficial compression ratio (0 when
	// NoBeneficial or not Ready).
	KMin float64
	// Tcomm is the effective exchange rate (bytes/sec) the evaluation
	// used — compressed message bytes over collective seconds, the live
	// analogue of Eq. 2's Tcomm.
	Tcomm float64
	// Ratio is the compression ratio the evaluation assumed: the
	// caller's live ratio while compressing, or the last ratio seen
	// before bypassing (so re-enablement can be judged while FP32 runs).
	Ratio float64
	// Theta is the suggested drop ratio; equal to the input θ unless
	// ThetaAdjusted is set.
	Theta float64
	// ThetaAdjusted marks a θ suggestion that differs from the input.
	ThetaAdjusted bool
}

// Controller evaluates the performance model online. One instance is
// shared by all ranks of a training run; DecideIter is safe for
// concurrent use and caches one decision per iteration.
type Controller struct {
	cfg Config
	st  *telemetry.StageTimer

	// patience and minSamples start at the constants; in-package tests
	// lower them to reach a decision in fewer iterations.
	patience   int
	minSamples int64

	mu          sync.Mutex
	lastIter    int
	last        Decision
	compressing bool
	contrary    int     // consecutive evaluations disagreeing with the state
	lastRatio   float64 // most recent ratio achieved while compressing
	flips       int64   // total enable/disable transitions
	bypassed    int64   // iterations decided as FP32 bypass
}

// New creates a controller reading live rates from its own stage timer:
// instrument the compressors and the exchange with Controller.StageTimer.
// The controller starts in the compressing state: compressing is how the
// pipeline rates get measured.
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg, st: telemetry.NewStageTimer(),
		patience: patience, minSamples: minSamples, lastIter: -1, compressing: true}
}

// StageTimer returns the timer the controller reads. Attach it to the
// compressors (compress.Instrument) and observe the exchange on it
// (StageComm) so decisions see the live pipeline.
func (c *Controller) StageTimer() *telemetry.StageTimer { return c.st }

// MeasuredThroughputs returns the live pipeline rates in perfmodel form.
// Stages the current algorithm never exercises (e.g. no transform for
// Top-k) report +Inf: a positive value passes Validate and contributes
// zero cost, which is exactly what a skipped stage costs.
func (c *Controller) MeasuredThroughputs() perfmodel.Throughputs {
	get := func(s telemetry.Stage) float64 {
		if r := c.st.Rate(s); r > 0 {
			return r
		}
		return math.Inf(1)
	}
	return perfmodel.Throughputs{
		Tm: get(telemetry.StageConvert),
		Tf: get(telemetry.StageTransform),
		Tp: get(telemetry.StagePack),
		Ts: get(telemetry.StageSelect),
	}
}

// pipelineSamples returns the total observation count across the four
// pipeline stages.
func (c *Controller) pipelineSamples() int64 {
	return c.st.Samples(telemetry.StageConvert) +
		c.st.Samples(telemetry.StageTransform) +
		c.st.Samples(telemetry.StagePack) +
		c.st.Samples(telemetry.StageSelect)
}

// DecideIter evaluates the model for iteration iter. ratio is the
// caller's current compression ratio (original bytes / message bytes;
// pass 0 or 1 while bypassed — the controller remembers the last
// compressed ratio) and theta the θ the schedule proposes. The first
// caller for an iteration computes the decision; subsequent callers for
// the same iteration get the cached copy, keeping all ranks consistent.
func (c *Controller) DecideIter(iter int, ratio, theta float64) Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	if iter == c.lastIter {
		return c.last
	}

	if c.compressing && ratio > 1 {
		c.lastRatio = ratio
	}
	evalRatio := c.lastRatio

	d := Decision{Iter: iter, Compress: c.compressing, Ratio: evalRatio, Theta: theta}
	tcomm := c.st.Rate(telemetry.StageComm)
	ready := tcomm > 0 && evalRatio > 1 &&
		c.st.Samples(telemetry.StageComm) >= c.minSamples &&
		c.pipelineSamples() >= c.minSamples
	if !ready {
		c.commit(iter, d)
		return d
	}

	d.Ready = true
	d.Tcomm = tcomm
	t := c.MeasuredThroughputs()
	kmin, err := perfmodel.MinBeneficialRatio(tcomm, t)
	var want bool
	switch {
	case err != nil:
		// Either no beneficial ratio exists on this fabric, or a rate
		// went unmeasured in a way Validate rejects; both mean "do not
		// trust compression to win".
		d.NoBeneficial = err == perfmodel.ErrNoBeneficialRatio
		want = false
	default:
		d.KMin = kmin
		want = evalRatio > kmin
	}

	// Patience: require c.patience consecutive contrary evaluations
	// before flipping, so a single noisy EWMA sample near break-even
	// cannot thrash the wire format.
	if want != c.compressing {
		c.contrary++
		if c.contrary >= c.patience {
			c.compressing = want
			c.contrary = 0
			c.flips++
		}
	} else {
		c.contrary = 0
	}
	d.Compress = c.compressing

	if c.cfg.AdjustTheta && c.compressing && d.KMin > 1 {
		d.Theta, d.ThetaAdjusted = c.suggestTheta(theta, evalRatio, d.KMin)
	}
	c.commit(iter, d)
	return d
}

// suggestTheta steers θ so the achieved ratio approaches margin·k_min.
// The wire ratio of a sparsifying compressor is roughly proportional to
// 1/(1−θ), so scaling the kept fraction by ratio/target moves the ratio
// onto the target: (1−θ′) = (1−θ)·ratio/target. A ±10% deadband keeps
// the controller from dithering θ every iteration.
func (c *Controller) suggestTheta(theta, ratio, kmin float64) (float64, bool) {
	target := margin * kmin
	if target <= 1 || theta <= 0 || theta >= 1 {
		return theta, false
	}
	rel := ratio / target
	if rel > 0.9 && rel < 1.1 {
		return theta, false
	}
	nt := 1 - (1-theta)*rel
	nt = min(max(nt, thetaMin), thetaMax)
	if nt == theta {
		return theta, false
	}
	return nt, true
}

// commit stores the decision as the iteration's cached verdict; callers
// hold c.mu.
func (c *Controller) commit(iter int, d Decision) {
	c.lastIter = iter
	c.last = d
	if !d.Compress {
		c.bypassed++
	}
}

// Last returns the most recent decision (zero Decision before any).
func (c *Controller) Last() Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// Flips returns how many enable/disable transitions have occurred.
func (c *Controller) Flips() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flips
}

// BypassedIterations returns how many iterations were decided as FP32
// bypass.
func (c *Controller) BypassedIterations() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bypassed
}

// Register exposes the controller's state on reg as exposition-time
// gauges (no hot-path cost).
func (c *Controller) Register(reg *telemetry.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.GaugeFunc("fftgrad_adapt_compress_enabled",
		"1 when the controller has compression enabled, 0 when bypassing to FP32",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.compressing {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("fftgrad_adapt_kmin_ratio",
		"minimal beneficial compression ratio from the live Eq. 4 evaluation (0 = none exists)",
		func() float64 { return c.Last().KMin })
	reg.GaugeFunc("fftgrad_adapt_tcomm_bytes_per_second",
		"effective exchange rate the last decision used",
		func() float64 { return c.Last().Tcomm })
	reg.GaugeFunc("fftgrad_adapt_ratio",
		"compression ratio the last decision assumed",
		func() float64 { return c.Last().Ratio })
	reg.GaugeFunc("fftgrad_adapt_theta",
		"drop ratio suggested by the last decision",
		func() float64 { return c.Last().Theta })
	reg.GaugeFunc("fftgrad_adapt_flips_total",
		"total compress/bypass transitions",
		func() float64 { return float64(c.Flips()) })
	reg.GaugeFunc("fftgrad_adapt_bypassed_iterations_total",
		"iterations decided as FP32 bypass",
		func() float64 { return float64(c.BypassedIterations()) })
}
