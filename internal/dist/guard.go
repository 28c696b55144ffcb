package dist

// Guard glue: per-worker state for internal/guard's integrity layer.
// Every method is nil-receiver safe, so the worker loops call straight
// through without sprinkling `if guard enabled` checks; with guard off
// each call is a nil check and nothing else.
//
// Cross-rank agreement without coordination: the shared guard.Config
// fixes the wire format and thresholds, the anomaly detector observes
// the *post-average* gradient norm (identical on every rank in the
// barrier path), and drift detection compares the one fingerprint set
// every rank received — so clip/skip/rollback and forced re-syncs
// happen in lockstep with zero extra collectives.

import (
	"math"

	"fftgrad/internal/checkpoint"
	"fftgrad/internal/compress"
	"fftgrad/internal/guard"
	"fftgrad/internal/nn"
	"fftgrad/internal/optim"
	"fftgrad/internal/trace"
)

type guardState struct {
	cfg    guard.Config
	stats  *guard.Stats
	det    *guard.Detector
	isRoot bool
	tc     *trace.Ctx // this rank's timeline track (nil = tracing off)

	ownFP uint64 // this rank's fingerprint on the last drift round

	// ring is the in-memory retained rollback ring: states captured at
	// deterministic iterations, so every rank restores the same point.
	ring []*checkpoint.State
}

func newGuardState(cfg Config, rank int, tc *trace.Ctx) *guardState {
	if cfg.Guard == nil {
		return nil
	}
	gs := &guardState{cfg: *cfg.Guard, stats: cfg.guardStats, isRoot: rank == 0, tc: tc}
	if gs.cfg.Detect {
		gs.det = guard.NewDetector(gs.cfg)
	}
	return gs
}

// wrap frames c for the wire when framing is enabled (CRC or drift
// fingerprints); otherwise c passes through untouched.
func (gs *guardState) wrap(c compress.Compressor) compress.Compressor {
	if gs == nil || !gs.cfg.Framing() {
		return c
	}
	return guard.NewFramed(c, gs.cfg.CRC)
}

// scrubGrad runs the pre-compress scrub in place. Under ScrubSkip a
// poisoned gradient is withheld entirely: the rank ships zeros (keeping
// the BSP collective in lockstep without coordination) and the
// compressor's error-feedback residual is left untouched — preserved
// for the next healthy iteration rather than polluted with NaNs.
func (gs *guardState) scrubGrad(grad []float32) {
	if gs == nil || gs.cfg.Scrub == guard.ScrubOff {
		return
	}
	scrubbed, skip := guard.Scrub(grad, gs.cfg.Scrub, gs.cfg.ClampLimit)
	if scrubbed > 0 {
		gs.stats.AddScrubbed(scrubbed)
		gs.tc.Instant(trace.OpScrubbed, int64(scrubbed))
	}
	if skip {
		clear(grad)
		gs.stats.AddSkippedGrad()
	}
}

// driftDue reports whether iter is a fingerprint-exchange round.
func (gs *guardState) driftDue(iter int) bool {
	return gs != nil && gs.cfg.DriftEvery > 0 && iter > 0 && iter%gs.cfg.DriftEvery == 0
}

// noDrift turns the fingerprint exchange off for this rank's run.
func (gs *guardState) noDrift() {
	if gs != nil {
		gs.cfg.DriftEvery = 0
	}
}

// attachFingerprint hashes the current parameters and rides the result
// on this iteration's outgoing frame header.
func (gs *guardState) attachFingerprint(net *nn.Network, iterComp compress.Compressor) {
	f, ok := iterComp.(*guard.Framed)
	if !ok {
		return
	}
	gs.ownFP = guard.Fingerprint(net.Data())
	f.SetNextFingerprint(gs.ownFP)
}

// checkDrift compares every fresh peer fingerprint against our own,
// returning true when a mismatch calls for a forced re-sync. Any
// divergence makes the fingerprint set non-uniform, and every rank
// compares the same set — so all ranks reach the same verdict and
// enter the forced sync together. Stale cached contributions carry a
// fingerprint from an older round and are excluded.
func (gs *guardState) checkDrift(msgs [][]byte, staleMask []bool) bool {
	if gs.isRoot {
		gs.stats.AddDriftCheck()
	}
	for j, m := range msgs {
		if m == nil || (staleMask != nil && staleMask[j]) {
			continue
		}
		if fp, ok := guard.PeekFingerprint(m); ok && fp != gs.ownFP {
			if gs.isRoot {
				gs.stats.AddDriftResync()
			}
			gs.tc.Instant(trace.OpDriftResync, int64(j))
			return true
		}
	}
	return false
}

// observe feeds the post-average gradient norm to the anomaly detector
// and applies the in-place part of the verdict (clipping). The caller
// acts on the returned rung: skip drops the update, rollback restores
// the retained ring. Only rank 0 counts — the decision is global.
func (gs *guardState) observe(avg []float32) guard.Action {
	if gs == nil || gs.det == nil {
		return guard.ActionNone
	}
	var sum float64
	for _, v := range avg {
		sum += float64(v) * float64(v)
	}
	action, scale := gs.det.Observe(math.Sqrt(sum))
	if gs.isRoot {
		gs.stats.SetZ(gs.det.Z())
		if action != guard.ActionNone {
			gs.stats.AddAnomaly()
		}
	}
	switch action {
	case guard.ActionClip:
		s := float32(scale)
		for i := range avg {
			avg[i] *= s
		}
		if gs.isRoot {
			gs.stats.AddClip()
		}
		gs.tc.Instant(trace.OpClip, 0)
	case guard.ActionSkip:
		if gs.isRoot {
			gs.stats.AddSkippedUpdate()
		}
		gs.tc.Instant(trace.OpSkipUpdate, 0)
	case guard.ActionRollback:
		if gs.isRoot {
			gs.stats.AddRollback()
		}
		gs.tc.Instant(trace.OpRollback, 0)
	}
	return action
}

// retain captures a rollback state, keeping the last RetainK: once the
// ring is full, the oldest state's vectors take the capture. Without a
// rollback detector it captures nothing.
func (gs *guardState) retain(net *nn.Network, sgd *optim.SGD, epoch, iter int) {
	if gs == nil || gs.det == nil {
		return
	}
	var st *checkpoint.State
	if n := len(gs.ring); n > 0 && n >= gs.cfg.RetainK {
		st = gs.ring[0]
		copy(gs.ring, gs.ring[1:])
		gs.ring = gs.ring[:n-1]
	}
	gs.ring = append(gs.ring, checkpoint.CaptureInto(st, net, sgd, int64(epoch), int64(iter)))
}

// maybeRetain captures a rollback state at the deterministic retention
// cadence (every rank captures at the same iterations).
func (gs *guardState) maybeRetain(iter, epoch int, net *nn.Network, sgd *optim.SGD) {
	if gs == nil || gs.det == nil || (iter+1)%gs.cfg.RetainEvery != 0 {
		return
	}
	gs.retain(net, sgd, epoch, iter)
}

// rollback restores the newest retained state and resets the detector
// baseline (the restored parameters produce pre-burst norms).
func (gs *guardState) rollback(net *nn.Network, sgd *optim.SGD) {
	if len(gs.ring) == 0 {
		return
	}
	_ = gs.ring[len(gs.ring)-1].Apply(net, sgd)
	gs.det.Reset()
}
