//go:build !race

package guard

// raceEnabled reports whether the race detector is active; the
// allocation gate skips under -race because instrumentation adds
// bookkeeping allocations that are not present in production builds.
const raceEnabled = false
