//go:build race

package pbft

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
