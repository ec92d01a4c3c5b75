// Package costtest times one routine against another for the cost
// gates: tests that bound what an operation costs as a ratio to a
// comparison point measured in the same run, so the bound holds on a
// host of any speed.
//
// Usage, in a gate:
//
//	costtest.Skip(t)
//	r := costtest.Ratio(101, fast, reference)
//	t.Logf("fast costs %v reference", r)
//	if r.Median > 0.8 { t.Errorf(...) }
//
// The statistic is the median, over back-to-back pairs, of each pair's
// ratio, and a sample is the CPU time of the calling OS thread. Under
// `go test ./...` other packages' test binaries share the CPUs. The
// fastest sample of each side, which the gates used to compare, is then
// an extreme taken from two different moments, and a gate read over its
// bound in some of those runs. A pair's two samples are taken within
// moments of each other, so what slows the host for a while slows both
// and cancels in their ratio; the median drops the pairs that one
// interruption hit; and time the thread spent descheduled is not its
// CPU time.
//
//lint:ignore unreached test-support package: the cost gates' CPU-time ratio, imported by tests only
package costtest

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// Skip skips a cost gate where its timings would not measure the code:
// in -short mode, and under the race detector, whose instrumentation
// taxes the two sides of a ratio unevenly.
func Skip(t testing.TB) {
	t.Helper()
	if testing.Short() {
		t.Skip("timing gate; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate; skipped under -race")
	}
}

// Stat is what Ratio read: the median of the pairs' ratios, which a
// gate compares with its bound, and the lowest and highest for the log.
type Stat struct {
	Median, Min, Max float64
	Pairs            int
}

func (s Stat) String() string {
	return fmt.Sprintf("%.2fx (median of %d pairs, %.2fx to %.2fx)", s.Median, s.Pairs, s.Min, s.Max)
}

// Ratio runs a and then b, pairs times, and returns the statistics of
// each pair's ratio of a's thread CPU time to b's. Both run on the
// calling goroutine, locked to its OS thread for the whole run: work
// they hand to other goroutines is not counted.
func Ratio(pairs int, a, b func()) Stat {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ratios := make([]float64, pairs)
	for i := range ratios {
		start := threadCPU()
		a()
		mid := threadCPU()
		b()
		ratios[i] = float64(mid-start) / float64(threadCPU()-mid)
	}
	slices.Sort(ratios)
	return Stat{Median: ratios[pairs/2], Min: ratios[0], Max: ratios[pairs-1], Pairs: pairs}
}
