//go:build !race

package reach

// raceEnabled reports whether the race detector is active. sync.Pool
// deliberately drops Puts at random under -race, so allocation pins on
// paths that draw from a pool only hold without it.
const raceEnabled = false
