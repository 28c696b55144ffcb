//go:build race

package models

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
