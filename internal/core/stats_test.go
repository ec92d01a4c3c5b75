package core

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func recordN(s *statsRecorder, n int, d time.Duration, r Receipt, err error) {
	for i := 0; i < n; i++ {
		s.record(time.Now().Add(-d), r, err)
	}
}

func TestLatencySummaryOrdering(t *testing.T) {
	var s statsRecorder
	// A spread of latencies across several histogram buckets.
	for _, d := range []time.Duration{
		10 * time.Microsecond, 15 * time.Microsecond, 80 * time.Microsecond,
		500 * time.Microsecond, 2 * time.Millisecond, 40 * time.Millisecond,
	} {
		recordN(&s, 10, d, Receipt{Accepted: true}, nil)
	}
	got := s.snapshot()
	l := got.Latency
	if l.Count != 60 {
		t.Fatalf("count = %d, want 60", l.Count)
	}
	if l.P50 <= 0 || l.P50 > l.P95 || l.P95 > l.P99 || l.P99 > l.Max {
		t.Fatalf("quantiles not ordered: %+v", l)
	}
	// Max is exact (recorded via CAS, not bucketed): at least the slowest
	// recorded latency.
	if l.Max < 40*time.Millisecond {
		t.Fatalf("max = %v, want >= 40ms", l.Max)
	}
	if l.Mean <= 0 || l.Mean > l.Max {
		t.Fatalf("mean = %v out of range (max %v)", l.Mean, l.Max)
	}
}

func TestLatencySummaryEmpty(t *testing.T) {
	var s statsRecorder
	l := s.snapshot().Latency
	if l.Count != 0 || l.P50 != 0 || l.P99 != 0 || l.Max != 0 || l.Mean != 0 {
		t.Fatalf("empty summary not zero: %+v", l)
	}
}

// TestSnapshotTearFree hammers a recorder from many goroutines and
// repeatedly snapshots it, asserting every snapshot is internally
// consistent: Submitted == Accepted + Rejected + Errors and the latency
// count matches. record() bumps Submitted last, so a torn read would show
// outcome counters AHEAD of Submitted; the snapshot retry loop must never
// surface that.
func TestSnapshotTearFree(t *testing.T) {
	var s statsRecorder
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch w % 3 {
				case 0:
					s.record(time.Now(), Receipt{Accepted: true}, nil)
				case 1:
					s.record(time.Now(), Receipt{Accepted: false}, nil)
				default:
					s.record(time.Now(), Receipt{}, errors.New("boom"))
				}
			}
		}(w)
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		got := s.snapshot()
		if sum := got.Accepted + got.Rejected + got.Errors; sum != got.Submitted {
			t.Fatalf("torn snapshot: submitted=%d but outcomes sum to %d (%+v)",
				got.Submitted, sum, got)
		}
		if got.Latency.Count != got.Submitted {
			t.Fatalf("latency count %d != submitted %d", got.Latency.Count, got.Submitted)
		}
	}
	close(stop)
	wg.Wait()
	// Quiescent: the final snapshot accounts for every record exactly.
	final := s.snapshot()
	if final.Accepted+final.Rejected+final.Errors != final.Submitted || final.Latency.Count != final.Submitted {
		t.Fatalf("final snapshot inconsistent: %+v", final)
	}
	if final.Submitted == 0 {
		t.Fatal("hammer goroutines recorded nothing")
	}
}

func TestMeanLatencyMatchesSummary(t *testing.T) {
	var s statsRecorder
	recordN(&s, 5, time.Millisecond, Receipt{Accepted: true}, nil)
	got := s.snapshot()
	if mean := time.Duration(got.TotalVerifyNanos / got.Submitted); mean != got.Latency.Mean {
		t.Fatalf("TotalVerifyNanos/Submitted %v != Latency.Mean %v", mean, got.Latency.Mean)
	}
}
