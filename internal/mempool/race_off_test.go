//go:build !race

package mempool

// raceEnabled reports whether the race detector instruments this build.
// The detector allocates shadow state of its own, so the heap gate
// (TestPoolRetainsNothingPerResolvedOp, `make heap-smoke`) only runs without it.
const raceEnabled = false
