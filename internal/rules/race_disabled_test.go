//go:build !race

package rules

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
