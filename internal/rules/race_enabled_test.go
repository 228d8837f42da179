//go:build race

package rules

// raceEnabled reports whether the race detector is active; heap and
// allocation assertions are skipped under it (the detector's own
// bookkeeping allocates).
const raceEnabled = true
