//go:build race

package chain

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
