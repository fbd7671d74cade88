//go:build race

package cluster

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of what it is handed, so pooled allocations cannot be budgeted.
const raceEnabled = true
