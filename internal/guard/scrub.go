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
//
// The pass decides on each value's bits: with the sign bit masked off, a
// finite float32's magnitude orders as its bits do, an all-ones exponent
// (at or above 0x7f800000) is ±Inf or NaN, and a clamped value takes the
// limit's bits with its own sign.
func Scrub(g []float32, policy ScrubPolicy, clampLimit float64) (scrubbed int, skip bool) {
	if policy == ScrubOff {
		return 0, false
	}
	const sign, inf = 1 << 31, 0x7f800000
	limit := float32(math.MaxFloat32)
	if policy == ScrubClamp && clampLimit > 0 {
		limit = float32(clampLimit) // +Inf above MaxFloat32
	}
	lim := math.Float32bits(limit)
	// Values whose magnitude bits exceed healthy are scrubbed: every
	// non-finite one, and a finite one past a finite limit.
	healthy := min(lim, math.Float32bits(math.MaxFloat32))
	for i, v := range g {
		b := math.Float32bits(v)
		a := b &^ sign
		if a <= healthy {
			continue
		}
		scrubbed++
		if a >= inf {
			if policy == ScrubSkip {
				skip = true
				continue
			}
			if a > inf { // NaN
				g[i] = 0
				continue
			}
		}
		g[i] = math.Float32frombits(lim | b&sign)
	}
	return scrubbed, skip
}
