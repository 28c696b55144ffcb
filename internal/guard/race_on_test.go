//go:build race

package guard

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
