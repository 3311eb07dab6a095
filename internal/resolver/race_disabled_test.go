//go:build !race

package resolver

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
