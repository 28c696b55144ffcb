package guard

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// seedScrub is Scrub as it was before it decided on float32 bits, kept
// verbatim as the reference TestScrubMatchesReference and
// FuzzScrubMatchesReference hold it to.
func seedScrub(g []float32, policy ScrubPolicy, clampLimit float64) (scrubbed int, skip bool) {
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

// checkScrub runs Scrub and seedScrub on copies of g and fails unless
// the written bits, the count and the skip verdict all agree.
func checkScrub(t *testing.T, g []float32, policy ScrubPolicy, clampLimit float64) {
	t.Helper()
	got, want := slices.Clone(g), slices.Clone(g)
	gs, gk := Scrub(got, policy, clampLimit)
	ws, wk := seedScrub(want, policy, clampLimit)
	if gs != ws || gk != wk {
		t.Fatalf("policy %d limit %v: Scrub = (%d, %v), reference (%d, %v)", policy, clampLimit, gs, gk, ws, wk)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("policy %d limit %v: g[%d] = %#x from %#x, reference %#x",
				policy, clampLimit, i, math.Float32bits(got[i]), math.Float32bits(g[i]), math.Float32bits(want[i]))
		}
	}
}

var scrubPolicies = []ScrubPolicy{ScrubOff, ScrubClamp, ScrubSkip, ScrubPolicy(7)}

// scrubLimits are clamp limits at every boundary of the conversion to
// float32: none, negative, NaN, one that rounds to +0, a subnormal, an
// ordinary one, MaxFloat32 itself, one that rounds to it, and ones that
// round to +Inf.
var scrubLimits = []float64{0, -1, math.NaN(), 1e-50, 1e-40, 2.5, math.MaxFloat32,
	math.MaxFloat32 * (1 + 0x1p-26), math.MaxFloat32 * 2, math.Inf(1)}

func TestScrubMatchesReference(t *testing.T) {
	nanPayload := math.Float32frombits(0x7fc00123)
	negNaN := math.Float32frombits(0xffa00001) // signalling, with a payload
	for _, limit := range scrubLimits {
		lim := float32(limit)
		vals := []float32{0, float32(math.Copysign(0, -1)), 1, -1,
			math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff),
			math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)),
			float32(math.NaN()), nanPayload, negNaN, 2.5, -2.5, 1e30, -1e-30}
		if lim > 0 && !math.IsInf(float64(lim), 0) && !math.IsNaN(float64(lim)) {
			up := math.Nextafter32(lim, float32(math.Inf(1)))
			vals = append(vals, lim, -lim, up, -up, math.Nextafter32(lim, 0), -math.Nextafter32(lim, 0))
		}
		for _, p := range scrubPolicies {
			checkScrub(t, vals, p, limit)
			for _, v := range vals { // each value alone: the skip verdict and count per value
				checkScrub(t, []float32{v}, p, limit)
			}
		}
	}
}

// FuzzScrubMatchesReference: Scrub on arbitrary float32 bit patterns
// under every policy, at a fuzzed clamp limit and each boundary one,
// against the reference loop.
func FuzzScrubMatchesReference(f *testing.F) {
	f.Add(2.5, []byte{0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0xff, 0, 0, 0x20, 0x40})
	f.Add(0.0, []byte{1, 0, 0, 0, 0xff, 0xff, 0x7f, 0x7f, 0, 0, 0, 0x80})
	f.Add(1e-40, []byte{0x23, 0x01, 0xa0, 0x7f, 0, 0, 0x80, 0x00})
	f.Fuzz(func(t *testing.T, limit float64, raw []byte) {
		g := make([]float32, len(raw)/4)
		for i := range g {
			g[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		for _, p := range scrubPolicies {
			checkScrub(t, g, p, limit)
			for _, l := range scrubLimits {
				checkScrub(t, g, p, l)
			}
		}
	})
}
