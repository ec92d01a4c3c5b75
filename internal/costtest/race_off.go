//go:build !race

package costtest

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
