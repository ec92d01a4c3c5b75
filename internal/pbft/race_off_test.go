//go:build !race

package pbft

// raceEnabled reports whether the race detector instruments this build.
// Under it a sync.Pool drops some of what it is given, so FuzzOpen's
// allocation check allows one HMAC keyed afresh.
const raceEnabled = false
