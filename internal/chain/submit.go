package chain

import (
	"errors"
	"fmt"
	"time"

	"prever/internal/mempool"
)

// The asynchronous batch-first submission surface — the ONE submission
// API; the HTTP serving layer (internal/api, cmd/prever-server) fronts
// exactly this. Transactions enter the shard's mempool (duplicate-
// suppressed, admission-controlled, lane-ordered by key) and resolve when
// the batch they rode in commits:
//
//	SubmitAsync(tx)  → <-chan Result   one tx, resolve later
//	SubmitBatch(txs) → []Result        many txs, resolved in input order
//
// Per-producer ordering: transactions with the same key share a mempool
// lane and are proposed — and, with ordered batch dispatch, applied — in
// submission order.

// Result is the outcome of one asynchronous transaction submission.
type Result struct {
	// TxID is the transaction's identity (assigned at submission when the
	// caller left it empty), usable for later proofs and audits.
	TxID string
	// Err is nil once the transaction's batch committed. The typed
	// sentinels in errors.go classify the failure: ErrPoolFull (back off
	// and retry), ErrDuplicate (already committed — a success with a
	// flag), ErrShardClosed, ErrTxTooLarge, ErrTxTooDeep.
	Err error
}

// submitWait is the synchronous helper the 2PC coordinator and tests use
// for one-at-a-time semantics over the async surface.
func submitWait(s *Shard, tx Tx) error { return (<-s.SubmitAsync(tx)).Err }

// Stats mirrors the Engine Stats shape (core.Stats) for the consensus
// submission path — Accepted+Duplicates+Rejected+Errors converges to
// Submitted when the shard is quiescent — and adds the mempool's view:
// queue depth, admission rejections, and the proposed-batch size
// histogram. Sharded aggregates it across shards with Merge. The JSON
// tags are the wire shape: internal/api serves exactly this struct at
// /stats (per shard and aggregated), and the repository benchmark reads it.
type Stats struct {
	Submitted  int64 `json:"submitted"`  // transactions entering SubmitAsync
	Accepted   int64 `json:"accepted"`   // transactions whose batch committed
	Duplicates int64 `json:"duplicates"` // dedup-acked resubmissions (ErrDuplicate)
	Rejected   int64 `json:"rejected"`   // admission-control rejections (ErrPoolFull)
	Errors     int64 `json:"errors"`     // submission failures (budget exhausted, shard closed, oversized)
	// TotalCommitNanos accumulates wall time from submission to ack;
	// divide by Accepted for the mean commit latency.
	TotalCommitNanos int64 `json:"totalCommitNanos"`
	// Undecodable counts committed requests that were not a decodable
	// batch frame and framed ops that were not a decodable transaction,
	// once per peer that met them: they cannot be applied, and a non-zero
	// count means something other than this shard's client wrote into its
	// consensus log.
	Undecodable int64 `json:"undecodable"`
	// Pool is the mempool snapshot (Depth, InFlight, dedup counters).
	Pool mempool.PoolStats `json:"pool"`
	// Batches is the proposed-batch histogram (size buckets, mean, max).
	Batches mempool.BatchStats `json:"batches"`
}

// MeanCommitLatency returns the average submission-to-commit time.
func (s Stats) MeanCommitLatency() time.Duration {
	if s.Accepted == 0 {
		return 0
	}
	return time.Duration(s.TotalCommitNanos / s.Accepted)
}

// Merge accumulates o into s (cross-shard aggregation). Gauges (Depth,
// InFlight) sum — the aggregate reads as total backlog.
func (s *Stats) Merge(o Stats) {
	s.Submitted += o.Submitted
	s.Accepted += o.Accepted
	s.Duplicates += o.Duplicates
	s.Rejected += o.Rejected
	s.Errors += o.Errors
	s.TotalCommitNanos += o.TotalCommitNanos
	s.Undecodable += o.Undecodable
	s.Pool.Depth += o.Pool.Depth
	s.Pool.InFlight += o.Pool.InFlight
	s.Pool.Admitted += o.Pool.Admitted
	s.Pool.RejectedFull += o.Pool.RejectedFull
	s.Pool.DupPending += o.Pool.DupPending
	s.Pool.DupExecuted += o.Pool.DupExecuted
	s.Pool.Acked += o.Pool.Acked
	s.Pool.Failed += o.Pool.Failed
	s.Batches.Merge(o.Batches)
}

// laneOf picks the mempool ordering key for a transaction: the row key
// (per-key submission order survives batching), the cross-shard id for
// keyless 2PC phases, the transaction id as a last resort.
func laneOf(tx Tx) string {
	switch {
	case tx.Key != "":
		return tx.Key
	case tx.XID != "":
		return tx.XID
	default:
		return tx.ID
	}
}

// SubmitAsync admits a transaction to the mempool and returns a buffered
// channel that receives its Result exactly once. An empty tx.ID is
// assigned here; callers that retry a failed submission should reuse the
// returned TxID so the mempool's duplicate suppression can collapse the
// retry (a retried transaction that is still pending, or that is in the
// chain already, is acked without being proposed again).
func (s *Shard) SubmitAsync(tx Tx) <-chan Result { return s.submit(tx, nil) }

// submit is SubmitAsync; settled, when not nil, sees the Result just
// before the channel does, on whichever goroutine settles it.
func (s *Shard) submit(tx Tx, settled func(Result)) <-chan Result {
	ch := make(chan Result, 1)
	if tx.ID == "" {
		tx.ID = fmt.Sprintf("%s-%s-tx-%d", s.Name, s.nonce, s.seq.Add(1))
	}
	id := tx.ID
	start := time.Now()
	s.statsMu.Lock()
	s.stats.Submitted++
	s.statsMu.Unlock()
	done := func(err error) {
		err = sentinelErr(err)
		s.recordOutcome(start, err)
		res := Result{TxID: id, Err: err}
		if settled != nil {
			settled(res)
		}
		ch <- res
	}
	data := txBytes(tx)
	if len(data) > s.maxTx {
		done(fmt.Errorf("%w: %d bytes (limit %d)", ErrTxTooLarge, len(data), s.maxTx))
	} else if d := writesDepth(&tx); d > maxWritesDepth {
		// Every peer's decoder would refuse it after it committed.
		done(fmt.Errorf("%w: %d levels (limit %d)", ErrTxTooDeep, d, maxWritesDepth))
	} else if err := s.pool.Add(mempool.Op{ID: id, Lane: laneOf(tx), Data: data}, done); err != nil {
		done(err)
	}
	return ch
}

// SubmitBatch admits transactions in order and waits for all of them,
// returning results in input order. Transactions sharing a key keep their
// relative order through consensus. The caller is about to block, so the
// pool is told not to linger over a partial batch while consensus is idle.
func (s *Shard) SubmitBatch(txs []Tx) []Result {
	chans := make([]<-chan Result, len(txs))
	for i, tx := range txs {
		chans[i] = s.SubmitAsync(tx)
	}
	s.pool.Flush()
	out := make([]Result, len(txs))
	for i, ch := range chans {
		out[i] = <-ch
	}
	return out
}

func (s *Shard) recordOutcome(start time.Time, err error) {
	ns := time.Since(start).Nanoseconds()
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	switch {
	case err == nil:
		s.stats.Accepted++
		s.stats.TotalCommitNanos += ns
	case errors.Is(err, ErrDuplicate):
		// The original committed; this resubmission was only acked, so it
		// neither counts as a fresh commit nor pollutes commit latency.
		s.stats.Duplicates++
	case errors.Is(err, mempool.ErrFull):
		s.stats.Rejected++
	default:
		s.stats.Errors++
	}
}

// Stats snapshots the shard's submission counters, mempool state, and
// batch histogram.
func (s *Shard) Stats() Stats {
	s.statsMu.Lock()
	st := s.stats
	s.statsMu.Unlock()
	st.Pool = s.pool.Stats()
	st.Batches = s.batcher.Stats()
	return st
}

// Stats aggregates submission statistics across every shard.
func (c *Sharded) Stats() Stats {
	var total Stats
	for _, s := range c.shards {
		total.Merge(s.Stats())
	}
	return total
}

// SubmitBatch routes a batch of single-shard transactions to their home
// shards and waits for all of them, returning results in input order. Like
// Shard.SubmitBatch it does not linger in front of idle consensus.
func (c *Sharded) SubmitBatch(txs []Tx) []Result {
	chans := make([]<-chan Result, len(txs))
	for i, tx := range txs {
		chans[i] = c.ShardFor(tx.Key).SubmitAsync(tx)
	}
	// Every shard, not only the ones this batch touched: elsewhere there
	// is nothing of ours queued, and cutting short another producer's
	// linger costs at most some batch fill.
	for _, s := range c.shards {
		s.pool.Flush()
	}
	out := make([]Result, len(txs))
	for i, ch := range chans {
		out[i] = <-ch
	}
	return out
}

// Close shuts down every shard's submission front end.
func (c *Sharded) Close() error {
	var firstErr error
	for _, s := range c.shards {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
