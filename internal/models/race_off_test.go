//go:build !race

package models

// raceEnabled reports whether the race detector is active; the
// allocation gate skips under -race, whose instrumentation allocates.
const raceEnabled = false
