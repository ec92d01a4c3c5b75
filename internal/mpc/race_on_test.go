//go:build race

package mpc

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
