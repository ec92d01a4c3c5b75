//go:build race

package mempool

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
