//go:build race

package dataset

// raceEnabled reports whether the race detector is active; its
// instrumentation changes allocation behavior, so object-count pins skip.
const raceEnabled = true
