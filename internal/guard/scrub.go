package guard

import (
	"fmt"
	"math"
)

// ScrubPolicy selects what the pre-compress scrub pass does with
// non-finite gradient values.
type ScrubPolicy uint8

const (
	// ScrubOff disables the scrub pass.
	ScrubOff ScrubPolicy = iota
	// ScrubClamp repairs in place: NaN → 0, ±Inf → ±limit, and (when a
	// positive ClampLimit is set) |v| > limit → ±limit. Training
	// continues with the repaired gradient.
	ScrubClamp
	// ScrubSkip withholds any gradient containing a non-finite value:
	// the rank ships zeros for that iteration (so the BSP collective
	// stays in lockstep with no cross-rank coordination) and its
	// error-feedback residual is left untouched — preserved for the next
	// healthy iteration, not polluted with NaNs.
	ScrubSkip
)

// ParseScrubPolicy maps a flag string to a policy.
func ParseScrubPolicy(s string) (ScrubPolicy, error) {
	switch s {
	case "off", "":
		return ScrubOff, nil
	case "clamp":
		return ScrubClamp, nil
	case "skip":
		return ScrubSkip, nil
	}
	return ScrubOff, fmt.Errorf("guard: unknown scrub policy %q (want off|clamp|skip)", s)
}

// Scrub applies policy to g in place. It returns how many values were
// non-finite (or clamped) and, under ScrubSkip, whether the whole
// gradient must be withheld. Under ScrubSkip g is not modified — the
// caller zeroes its shipped copy and keeps the residual intact.
func Scrub(g []float32, policy ScrubPolicy, clampLimit float64) (scrubbed int, skip bool) {
	if policy == ScrubOff {
		return 0, false
	}
	limit := float32(math.MaxFloat32)
	clampFinite := policy == ScrubClamp && clampLimit > 0
	if clampFinite {
		limit = float32(clampLimit)
	}
	for i, v := range g {
		v64 := float64(v)
		if !math.IsNaN(v64) && !math.IsInf(v64, 0) {
			if clampFinite && (v > limit || v < -limit) {
				scrubbed++
				if v > 0 {
					g[i] = limit
				} else {
					g[i] = -limit
				}
			}
			continue
		}
		scrubbed++
		if policy == ScrubSkip {
			skip = true
			continue
		}
		switch {
		case math.IsNaN(v64):
			g[i] = 0
		case v > 0:
			g[i] = limit
		default:
			g[i] = -limit
		}
	}
	return scrubbed, skip
}
