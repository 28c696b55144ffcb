// Package guard is the data-plane integrity layer: it makes silent
// corruption and numerical failure detected, typed, and recoverable.
//
// The failure-aware runtime of internal/cluster handles *fail-stop*
// faults — crashes, partitions, stragglers. Everything that survives
// those policies today is silent: a bit-flipped frame decodes into
// garbage coefficients, a NaN poisons the error-feedback residual, and
// stale-gradient reuse can let ranks drift apart unnoticed. All three
// break the paper's bounded-error assumption (Lemma 3.3:
// ‖v̄−v̂̄‖ ≤ α‖v̄‖) outright — α is meaningless once v̂ is garbage.
//
// guard closes the gap with three independent, composable mechanisms:
//
//  1. Wire integrity — an opt-in versioned frame (magic, version, flags,
//     CRC32C) around every compressed gradient message. A corrupt frame
//     surfaces comm.ErrCorrupt *before* decompression and is repaired by
//     the cluster nack/resend path exactly like a lost frame.
//  2. Numerical health — a pre-compress scrub pass (NaN/Inf clamp or
//     skip, residual-preserving) plus an EWMA gradient-norm anomaly
//     detector whose z-score escalates clip → skip-update → rollback.
//  3. Drift detection — a cheap FNV-1a fingerprint of the parameter
//     vector piggybacked on the frame every DriftEvery iterations;
//     a cross-rank mismatch forces a parameter re-sync from the
//     canonical rank.
//
// All guard state that must agree across ranks (frame format, drift
// cadence, rollback rung) comes from one Config shared by every
// worker, and every detector observes the *post-average* gradient — so
// in the barrier path all ranks take identical actions in lockstep.
package guard

import (
	"sync/atomic"

	"fftgrad/internal/telemetry"
)

// Config selects which guards run and how aggressively they escalate.
// The zero value disables everything; WithDefaults fills canonical
// values for enabled mechanisms. The same Config must be given to every
// rank — it defines the wire format.
type Config struct {
	// CRC enables the CRC32C integrity check on every frame.
	CRC bool
	// Scrub selects the pre-compress NaN/Inf policy.
	Scrub ScrubPolicy
	// ClampLimit bounds |v| under ScrubClamp; 0 means only non-finite
	// values are replaced and finite magnitudes pass through untouched
	// (so scrubbing healthy gradients is bit-exact pure overhead).
	ClampLimit float64

	// RollbackAfter is the escalation ladder's last rung: up to SkipAfter
	// consecutive anomalies are clipped, beyond that the update is
	// skipped, and beyond RollbackAfter the model rolls back to the last
	// retained checkpoint. It must exceed SkipAfter (0: default
	// SkipAfter+3).
	RollbackAfter int
	// Detect enables the norm anomaly detector.
	Detect bool

	// DriftEvery exchanges parameter fingerprints every that many
	// iterations (0: never). Requires framing, which it implies.
	DriftEvery int
	// RetainEvery captures an in-memory rollback checkpoint every that
	// many iterations (0: default 2*DriftEvery or 20); RetainK is the
	// ring depth (0: default 3).
	RetainEvery int
	RetainK     int
}

// Enabled reports whether any guard mechanism is on.
func (c Config) Enabled() bool {
	return c.CRC || c.Scrub != ScrubOff || c.Detect || c.DriftEvery > 0
}

// Framing reports whether messages are wrapped in the guard frame.
// Drift fingerprints ride inside the frame header, so DriftEvery
// implies framing even without CRC.
func (c Config) Framing() bool { return c.CRC || c.DriftEvery > 0 }

// WithDefaults fills canonical values for unset knobs of enabled
// mechanisms.
func (c Config) WithDefaults() Config {
	if c.RollbackAfter == 0 {
		c.RollbackAfter = SkipAfter + 3
	}
	if c.RetainEvery <= 0 {
		if c.DriftEvery > 0 {
			c.RetainEvery = 2 * c.DriftEvery
		} else {
			c.RetainEvery = 20
		}
	}
	if c.RetainK <= 0 {
		c.RetainK = 3
	}
	return c
}

// Stats counts guard interventions across all ranks of one run.
// Corrupt-frame rejections are counted by the cluster runtime (the drop
// happens in its receiver, before gradients are even assembled) and
// merged into the Report by the caller.
type Stats struct {
	scrubbedValues   atomic.Uint64
	skippedGradients atomic.Uint64
	anomalies        atomic.Uint64
	clips            atomic.Uint64
	skippedUpdates   atomic.Uint64
	rollbacks        atomic.Uint64
	driftChecks      atomic.Uint64
	driftResyncs     atomic.Uint64

	zGauge *telemetry.Gauge
}

func (s *Stats) AddScrubbed(n int) { s.scrubbedValues.Add(uint64(n)) }
func (s *Stats) AddSkippedGrad()   { s.skippedGradients.Add(1) }
func (s *Stats) AddAnomaly()       { s.anomalies.Add(1) }
func (s *Stats) AddClip()          { s.clips.Add(1) }
func (s *Stats) AddSkippedUpdate() { s.skippedUpdates.Add(1) }
func (s *Stats) AddRollback()      { s.rollbacks.Add(1) }
func (s *Stats) AddDriftCheck()    { s.driftChecks.Add(1) }
func (s *Stats) AddDriftResync()   { s.driftResyncs.Add(1) }
func (s *Stats) SetZ(z float64) {
	if s.zGauge != nil {
		s.zGauge.Set(z)
	}
}

// Register exposes the guard counters on reg under the fftgrad_guard_*
// names (exposition-time reads of the shared atomics, so the hot path
// never touches the registry).
func (s *Stats) Register(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("fftgrad_guard_scrubbed_values", "non-finite gradient values replaced pre-compression",
		func() float64 { return float64(s.scrubbedValues.Load()) })
	reg.GaugeFunc("fftgrad_guard_anomalies", "gradient-norm anomalies flagged by the EWMA detector",
		func() float64 { return float64(s.anomalies.Load()) })
	reg.GaugeFunc("fftgrad_guard_rollbacks", "model rollbacks to a retained checkpoint",
		func() float64 { return float64(s.rollbacks.Load()) })
	reg.GaugeFunc("fftgrad_guard_drift_resyncs", "forced parameter re-syncs after a fingerprint mismatch",
		func() float64 { return float64(s.driftResyncs.Load()) })
	s.zGauge = reg.Gauge("fftgrad_guard_norm_z", "latest gradient-norm z-score (rank 0)")
}

// Report is a plain-value snapshot of one run's guard activity.
type Report struct {
	// CorruptFrames counts wire frames rejected by the integrity check
	// before decompression (repaired via nack/resend).
	CorruptFrames uint64
	// ScrubbedValues counts non-finite gradient values replaced by the
	// scrub pass; SkippedGradients counts whole gradients withheld under
	// ScrubSkip (the rank shipped zeros and kept its residual).
	ScrubbedValues   uint64
	SkippedGradients uint64
	// Anomalies counts detector firings; Clips/SkippedUpdates/Rollbacks
	// split them by the escalation rung taken.
	Anomalies      uint64
	Clips          uint64
	SkippedUpdates uint64
	Rollbacks      uint64
	// DriftChecks counts fingerprint comparison rounds; DriftResyncs the
	// mismatches that forced a parameter re-sync.
	DriftChecks  uint64
	DriftResyncs uint64
}

// Report snapshots the counters.
func (s *Stats) Report() Report {
	return Report{
		ScrubbedValues:   s.scrubbedValues.Load(),
		SkippedGradients: s.skippedGradients.Load(),
		Anomalies:        s.anomalies.Load(),
		Clips:            s.clips.Load(),
		SkippedUpdates:   s.skippedUpdates.Load(),
		Rollbacks:        s.rollbacks.Load(),
		DriftChecks:      s.driftChecks.Load(),
		DriftResyncs:     s.driftResyncs.Load(),
	}
}
