//go:build race

package main

// raceEnabled reports whether the race detector is compiled in: it slows
// requests tenfold, which the smoke test's one timing check cannot absorb.
const raceEnabled = true
