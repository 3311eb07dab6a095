//go:build race

package resolver

// raceEnabled reports whether the race detector is active; its
// instrumentation changes escape analysis, so allocation-budget tests skip.
const raceEnabled = true
