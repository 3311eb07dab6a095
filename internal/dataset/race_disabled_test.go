//go:build !race

package dataset

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
