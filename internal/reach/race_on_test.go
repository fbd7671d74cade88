//go:build race

package reach

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
