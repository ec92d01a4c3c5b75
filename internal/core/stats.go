package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Stats is a tear-free snapshot of an engine's submission counters and
// latency distribution, taken by the Stats method of every engine. It is
// operational observability, not part of the verification logic.
//
// Counters are recorded with atomics under a shared lock on the
// submission hot path (concurrent recorders never serialize on each
// other); a snapshot briefly excludes recorders, so
// Accepted+Rejected+Errors == Submitted and Latency.Count == Submitted
// hold for every snapshot — even one taken mid-flight — and
// TotalVerifyNanos / Submitted never divides values from different
// moments.
type Stats struct {
	Submitted int64
	Accepted  int64
	Rejected  int64
	Errors    int64
	// BatchVerified counts submissions accepted by one folded
	// verification that covered two or more updates of a drained lane.
	// It is a subset of Submitted; an update verified alone contributes
	// nothing here.
	BatchVerified int64
	// TotalVerifyNanos accumulates wall time spent inside submissions;
	// divide by Submitted for the mean.
	TotalVerifyNanos int64
	// Latency is the log-bucketed latency distribution of all recorded
	// submissions (accepted, rejected and errored alike).
	Latency LatencySummary
}

// LatencySummary condenses the latency histogram into the percentiles an
// evaluation harness reports. Percentiles are estimated by linear
// interpolation inside power-of-two buckets, so they carry at most ~2x
// relative error; Max is exact.
type LatencySummary struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// histBuckets is the number of power-of-two latency buckets: bucket i
// covers [2^i, 2^(i+1)) nanoseconds, which spans sub-nanosecond to
// centuries in 64 buckets.
const histBuckets = 64

// latencyHist is an HDR-style log-bucketed histogram, recorded lock-free
// via atomics on the submission hot path.
type latencyHist struct {
	counts [histBuckets]atomic.Int64
	sumNs  atomic.Int64
	maxNs  atomic.Int64
}

// bucketOf maps a latency to its bucket index.
func bucketOf(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	return bits.Len64(uint64(ns)) - 1
}

// record adds one observation.
func (h *latencyHist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(ns)].Add(1)
	h.sumNs.Add(ns)
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// summary reads the histogram into a LatencySummary.
func (h *latencyHist) summary() LatencySummary {
	var counts [histBuckets]int64
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := LatencySummary{Count: total, Max: time.Duration(h.maxNs.Load())}
	if total == 0 {
		return s
	}
	s.Mean = time.Duration(h.sumNs.Load() / total)
	s.P50 = quantile(&counts, total, 0.50, s.Max)
	s.P95 = quantile(&counts, total, 0.95, s.Max)
	s.P99 = quantile(&counts, total, 0.99, s.Max)
	return s
}

// quantile estimates the q-quantile from bucket counts: find the bucket
// holding the rank, then interpolate linearly between its bounds.
func quantile(counts *[histBuckets]int64, total int64, q float64, max time.Duration) time.Duration {
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		c := counts[i]
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := int64(1) << uint(i)
			hi := lo << 1
			if i == 0 {
				lo = 0
			}
			// Fraction of the way through this bucket's observations.
			frac := float64(rank-cum) / float64(c)
			est := time.Duration(float64(lo) + frac*float64(hi-lo))
			if max > 0 && est > max {
				est = max
			}
			return est
		}
		cum += c
	}
	return max
}

// statsRecorder is embedded by engines. Recorders run concurrently with
// each other — they take the mutex in shared (read) mode and update the
// counters with atomics, so the submission hot path never serializes on a
// sibling's record. A snapshot takes the mutex exclusively, which waits
// out every in-flight record and blocks new ones for the few loads below;
// that is what makes Accepted+Rejected+Errors == Submitted and
// Latency.Count == Submitted hold for every snapshot, not just quiescent
// ones. (A submitted-counter retry loop was tried first and torn anyway:
// it cannot see a record that updated the histogram but had not yet
// bumped submitted when the read began.)
type statsRecorder struct {
	mu            sync.RWMutex
	submitted     atomic.Int64
	accepted      atomic.Int64
	rejected      atomic.Int64
	errors        atomic.Int64
	batchVerified atomic.Int64
	nanos         atomic.Int64
	hist          latencyHist
}

// record tracks one submission outcome.
func (s *statsRecorder) record(start time.Time, r Receipt, err error) {
	ns := time.Since(start).Nanoseconds()
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.nanos.Add(ns)
	s.hist.record(ns)
	switch {
	case err != nil:
		s.errors.Add(1)
	case r.Accepted:
		s.accepted.Add(1)
	default:
		s.rejected.Add(1)
	}
	s.submitted.Add(1)
}

// recordBatch notes that n submissions were verified on an amortized
// batch path (their individual outcomes are still recorded via record).
func (s *statsRecorder) recordBatch(n int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.batchVerified.Add(int64(n))
}

// snapshot returns the current counters as one consistent Stats.
func (s *statsRecorder) snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Submitted:        s.submitted.Load(),
		Accepted:         s.accepted.Load(),
		Rejected:         s.rejected.Load(),
		Errors:           s.errors.Load(),
		BatchVerified:    s.batchVerified.Load(),
		TotalVerifyNanos: s.nanos.Load(),
		Latency:          s.hist.summary(),
	}
}
