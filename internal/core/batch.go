package core

import (
	"runtime"
	"sync"
)

// Batch submission. Every engine's batch entry point has one of two
// shapes: engines whose updates verify independently per ordering key
// (producer, worker, group, row key) fan the batch out by key with
// SubmitGrouped; engines whose verification protocol is inherently
// serialized (EncryptedManager's comparison oracle sits in the loop) run
// SubmitSequential. Both return receipts in input order and report
// rejections as receipts, never as errors.

// SubmitSequential submits one update at a time; the error is the first
// operational error.
func SubmitSequential[U any](submit func(U) (Receipt, error), us []U) ([]Receipt, error) {
	receipts := make([]Receipt, len(us))
	var firstErr error
	for i, u := range us {
		r, err := submit(u)
		receipts[i] = r
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return receipts, firstErr
}

// SubmitGrouped partitions a batch by lane key and hands each key's
// subsequence — in submission order — to a group-batch function, so an
// engine with an amortized batch verifier (one folded check per drained
// lane) sees whole lanes at once instead of one update at a time.
// At most GOMAXPROCS groups run at once; receipts are returned in input
// order, and the error is that of the first failing group in first-seen
// key order (rejections are receipts, not errors — matching
// SubmitSequential).
func SubmitGrouped[U any](submitGroup func([]U) ([]Receipt, error), laneOf func(U) string, us []U) ([]Receipt, error) {
	// Order-preserving partition: groups remember first-seen order so
	// error selection stays deterministic.
	idx := make(map[string][]int)
	var keys []string
	for i, u := range us {
		k := laneOf(u)
		if _, ok := idx[k]; !ok {
			keys = append(keys, k)
		}
		idx[k] = append(idx[k], i)
	}
	receipts := make([]Receipt, len(us))
	groupErrs := make([]error, len(keys))
	// The slot is taken before the goroutine starts, so a batch of many
	// single-update groups never holds more than GOMAXPROCS goroutines.
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for gi, k := range keys {
		sem <- struct{}{}
		wg.Add(1)
		go func(gi int, ids []int) {
			defer wg.Done()
			defer func() { <-sem }()
			group := make([]U, len(ids))
			for j, i := range ids {
				group[j] = us[i]
			}
			rs, err := submitGroup(group)
			groupErrs[gi] = err
			for j, i := range ids {
				if j < len(rs) {
					receipts[i] = rs[j]
				}
			}
		}(gi, idx[k])
	}
	wg.Wait()
	for _, err := range groupErrs {
		if err != nil {
			return receipts, err
		}
	}
	return receipts, nil
}
