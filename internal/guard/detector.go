package guard

import (
	"math"

	"fftgrad/internal/stats"
)

// Action is the escalation rung the detector picked for one iteration.
type Action uint8

const (
	// ActionNone: healthy norm, apply the update as-is.
	ActionNone Action = iota
	// ActionClip: anomalous norm, rescale the averaged gradient down to
	// the allowed envelope and apply.
	ActionClip
	// ActionSkip: repeated (or non-finite) anomaly, discard this
	// iteration's update entirely.
	ActionSkip
	// ActionRollback: the anomaly persisted past Config.RollbackAfter
	// consecutive iterations — restore the last retained checkpoint.
	ActionRollback
)

const (
	// detAlpha is the EWMA smoothing factor for the norm baseline.
	// Slower than the telemetry throughput EWMAs (0.2): the baseline must
	// not chase a burst, or the burst stops looking anomalous.
	detAlpha = 0.1
	// zThreshold is the norm z-score above which an iteration is
	// anomalous.
	zThreshold = 6
	// SkipAfter is the ladder's first rung: up to SkipAfter consecutive
	// anomalies are clipped, beyond that the update is skipped (until
	// Config.RollbackAfter).
	SkipAfter = 3
	// warmup is how many healthy samples the detector absorbs before it
	// may flag anomalies.
	warmup = 20
)

// Detector is the EWMA gradient-norm anomaly detector. It tracks an
// exponential moving mean and variance (stats.EWMA) of the
// *post-average* gradient norm and flags iterations whose z-score
// exceeds zThreshold, escalating clip → skip-update → rollback as
// anomalies persist.
//
// Observing the post-average norm (identical on every rank in the
// barrier path, near-identical under degraded fault-path rounds) means
// all ranks take the same action in lockstep without any coordination
// round. A non-finite norm can't be clipped, so it enters the ladder at
// skip.
//
// Healthy samples absorb into the baseline and reset the consecutive
// counter; anomalous samples absorb only their clipped envelope value,
// so a genuine regime shift slowly re-trains the baseline instead of
// triggering rollbacks forever.
type Detector struct {
	rollbackAfter int

	norm        stats.EWMA
	consecutive int
	z           float64
}

// NewDetector builds a detector with the (defaulted) config's rollback
// rung.
func NewDetector(cfg Config) *Detector {
	return &Detector{rollbackAfter: cfg.WithDefaults().RollbackAfter}
}

// Z returns the last observed z-score (exported to the telemetry
// gauge).
func (d *Detector) Z() float64 { return d.z }

// Reset clears the baseline and the escalation state. Called after a
// rollback: the restored parameters produce pre-burst norms, so the
// burst-era statistics no longer apply.
func (d *Detector) Reset() {
	d.norm, d.consecutive, d.z = stats.EWMA{}, 0, 0
}

// Observe feeds one post-average gradient norm and returns the action
// plus, for ActionClip, the factor to scale the gradient by (<1).
func (d *Detector) Observe(norm float64) (Action, float64) {
	if math.IsNaN(norm) || math.IsInf(norm, 0) {
		// Not clippable: a non-finite average is garbage whatever its
		// magnitude. Escalate straight from skip.
		d.z = math.Inf(1)
		return d.escalate(), 1
	}
	if d.norm.N == 0 {
		d.norm.Add(norm, detAlpha)
		d.z = 0
		return ActionNone, 1
	}
	sigma := math.Sqrt(d.norm.Var)
	// Floor sigma so ultra-stable baselines (or the first few samples)
	// don't turn ordinary jitter into huge z-scores.
	if floor := 0.05*d.norm.Mean + 1e-12; sigma < floor {
		sigma = floor
	}
	d.z = (norm - d.norm.Mean) / sigma
	if d.norm.N < warmup || d.z <= zThreshold {
		d.norm.Add(norm, detAlpha)
		d.consecutive = 0
		return ActionNone, 1
	}
	allowed := d.norm.Mean + zThreshold*sigma
	scale := 1.0
	if norm > 0 {
		scale = allowed / norm
	}
	d.norm.Add(allowed, detAlpha)
	if a := d.escalate(); a != ActionClip {
		return a, 1
	}
	return ActionClip, scale
}

// escalate advances the consecutive-anomaly ladder.
func (d *Detector) escalate() Action {
	d.consecutive++
	switch {
	case d.consecutive > d.rollbackAfter:
		d.consecutive = 0
		return ActionRollback
	case d.consecutive > SkipAfter || math.IsInf(d.z, 1):
		return ActionSkip
	default:
		return ActionClip
	}
}
