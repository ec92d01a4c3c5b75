//go:build race

package group

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
