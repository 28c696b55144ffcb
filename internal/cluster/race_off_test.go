//go:build !race

package cluster

// raceEnabled reports whether the race detector is active; allocation
// checks skip under -race, whose instrumentation allocates.
const raceEnabled = false
