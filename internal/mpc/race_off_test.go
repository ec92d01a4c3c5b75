//go:build !race

package mpc

// raceEnabled reports whether the race detector instruments this build.
// The cost gate skips under -race: instrumentation taxes math/big's
// assembly kernels and the Go around them unevenly, so the ratio stops
// measuring the protocol.
const raceEnabled = false
