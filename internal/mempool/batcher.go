package mempool

import (
	"math/bits"
	"sync"
)

// Proposer starts one consensus instance carrying an encoded batch of op
// payloads and returns a wait function for its outcome. Start must assign
// the instance's position in the total order eagerly (a paxos slot, a
// pbft sequence number) before returning, so that batches started in
// dispatch order commit in dispatch order on the fault-free path — that
// is what lets the Batcher pipeline MaxInFlight instances without
// breaking per-lane ordering. The returned wait blocks until the batch
// commits (nil) or its retry budget is exhausted (error); it runs on a
// Batcher goroutine, never the dispatch loop.
type Proposer func(ops [][]byte) (wait func() error)

// BatchStats summarizes proposed batches. Hist is a power-of-two
// batch-size histogram: Hist[i] counts batches with size in [2^i, 2^(i+1))
// (Hist[0] counts size-1 batches). JSON tags make it part of the unified
// stats shape internal/api serves at /stats.
type BatchStats struct {
	Batches int64     `json:"batches"`
	Ops     int64     `json:"ops"`
	MaxSize int       `json:"maxSize"`
	Hist    [16]int64 `json:"hist"`
}

// Merge accumulates o into b (Sharded-style aggregation).
func (b *BatchStats) Merge(o BatchStats) {
	b.Batches += o.Batches
	b.Ops += o.Ops
	if o.MaxSize > b.MaxSize {
		b.MaxSize = o.MaxSize
	}
	for i := range b.Hist {
		b.Hist[i] += o.Hist[i]
	}
}

func sizeBucket(n int) int {
	if n < 1 {
		n = 1
	}
	b := bits.Len(uint(n)) - 1
	if b >= len(BatchStats{}.Hist) {
		b = len(BatchStats{}.Hist) - 1
	}
	return b
}

// Batcher is the leader/primary-side drain loop: it pulls batches from
// the pool and drives them through a Proposer, keeping up to MaxInFlight
// instances pipelined. Dispatch is strictly ordered — batch i+1's
// instance is started only after batch i's — so per-lane submission order
// survives batching end to end.
type Batcher struct {
	pool    *Pool
	propose Proposer

	mu    sync.Mutex
	stats BatchStats

	slots chan struct{} // in-flight gate: one token per started instance

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{} // dispatch loop exited
	wg       sync.WaitGroup
}

// NewBatcher starts a batcher over pool; batch size, flush interval and
// the in-flight bound come from the pool's Config.
func NewBatcher(pool *Pool, propose Proposer) *Batcher {
	b := &Batcher{
		pool:    pool,
		propose: propose,
		slots:   make(chan struct{}, pool.Config().MaxInFlight),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go b.run()
	return b
}

// acquireSlot blocks until an in-flight slot frees up. Returns false when
// the batcher is stopping: stop is checked first, because a select with a
// free slot and a closed stop picks either, and a stopping batcher must
// never start another instance.
func (b *Batcher) acquireSlot() bool {
	select {
	case <-b.stop:
		return false
	default:
	}
	select {
	case <-b.stop:
		return false
	case b.slots <- struct{}{}:
		return true
	}
}

func (b *Batcher) run() {
	defer close(b.done)
	for {
		ops := b.pool.WaitBatch(b.stop)
		if ops == nil {
			return
		}
		if !b.acquireSlot() {
			// Shutting down mid-batch: fail the drained ops so their
			// producers are not left waiting forever.
			b.pool.Resolve(ops, ErrClosed)
			return
		}
		b.mu.Lock()
		b.stats.Batches++
		b.stats.Ops += int64(len(ops))
		if len(ops) > b.stats.MaxSize {
			b.stats.MaxSize = len(ops)
		}
		b.stats.Hist[sizeBucket(len(ops))]++
		b.mu.Unlock()
		payloads := make([][]byte, len(ops))
		for i, op := range ops {
			payloads[i] = op.Data
		}
		// Start eagerly on the dispatch goroutine (ordering), wait on a
		// worker goroutine (pipelining).
		wait := b.propose(payloads)
		b.wg.Add(1)
		go func(ops []Op) {
			defer b.wg.Done()
			defer func() { <-b.slots }()
			b.pool.Resolve(ops, wait())
		}(ops)
	}
}

// Stop halts dispatch and waits for in-flight instances to resolve. The
// pool stays open: a new Batcher may take over (leader turnover).
func (b *Batcher) Stop() {
	b.stopOnce.Do(func() { close(b.stop) })
	<-b.done
	b.wg.Wait()
}

// Stats snapshots the proposed-batch counters.
func (b *Batcher) Stats() BatchStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}
