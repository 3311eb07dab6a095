//go:build race

package core

// raceEnabled reports whether the race detector is active; its
// instrumentation changes allocation, so byte-budget checks skip, and the
// hostile-disk sweep thins out to keep the race job short.
const raceEnabled = true
