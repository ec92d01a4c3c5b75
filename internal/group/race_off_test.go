//go:build !race

package group

// raceEnabled reports whether the race detector instruments this build.
// Timing gates skip under -race: a ratio measured under the detector
// measures the detector.
const raceEnabled = false
