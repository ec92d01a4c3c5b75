package main

import (
	"runtime"
	"sync"
	"time"
)

// request performs request number seq of worker w. It reads the clock
// through now just before and just after the call into the system, so
// that building the request is not part of its latency, and leaves due
// to the loop.
type request func(w, seq int, now func() time.Duration) sample

// closedLoop has each worker send its next request as soon as the previous
// one completes, until d has elapsed: a slower system receives less load.
func closedLoop(workers int, d time.Duration, do request) []sample {
	t0 := time.Now()
	now := func() time.Duration { return time.Since(t0) }
	return perWorker(workers, func(w int) []sample {
		var out []sample
		for seq := 0; now() < d; seq++ {
			s := do(w, seq, now)
			s.due, s.free = s.start, s.start
			out = append(out, s)
		}
		return out
	})
}

// openLoop sends on a schedule regardless of how the system answers:
// request i is due at i×interval and belongs to worker i mod workers,
// which sends it at its due time or, when still busy with its previous
// request, as soon as it is free. Latency counts from the due time, so a
// stall charges every request that was due during it.
func openLoop(workers int, d, interval time.Duration, do request) []sample {
	t0 := time.Now()
	now := func() time.Duration { return time.Since(t0) }
	return perWorker(workers, func(w int) []sample {
		var out []sample
		var prevEnd time.Duration
		for seq := 0; ; seq++ {
			due := time.Duration(seq*workers+w) * interval
			if due >= d {
				return out
			}
			waitUntil(due, now)
			s := do(w, seq, now)
			s.due, s.free = due, max(due, prevEnd)
			prevEnd = s.end
			out = append(out, s)
		}
	})
}

// waitUntil sleeps to just before due and spins the rest: a Go timer that
// fires while every P is idle is delivered by the netpoller at millisecond
// granularity, which would make the generator up to 1 ms late on its own.
func waitUntil(due time.Duration, now func() time.Duration) {
	const spin = 1500 * time.Microsecond
	if wait := due - now() - spin; wait > 0 {
		time.Sleep(wait)
	}
	for now() < due {
		runtime.Gosched()
	}
}

func perWorker(workers int, loop func(w int) []sample) []sample {
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			per[w] = loop(w)
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}
