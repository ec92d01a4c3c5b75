package chain

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"prever/internal/mempool"
	"prever/internal/wire"
)

// The asynchronous batch-first submission surface — the ONE submission
// API; the HTTP serving layer (internal/api, cmd/prever-server) fronts
// exactly this. Transactions enter the shard's mempool (duplicate-
// suppressed, admission-controlled, lane-ordered by key) and resolve when
// the batch they rode in commits:
//
//	SubmitAsync(tx)  → <-chan Result   one tx, resolve later
//	SubmitBatch(txs) → []Result        many txs, resolved in input order
//	SubmitEncoded    → []Result        SubmitBatch for encoded txs (Sharded)
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
	// flag), ErrShardClosed, ErrTxTooLarge, ErrTxTooDeep, ErrUnmintedID.
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
	Submitted  int64 `json:"submitted"`  // transactions entering SubmitAsync, SubmitBatch, SubmitEncoded or SubmitPrivate
	Accepted   int64 `json:"accepted"`   // transactions whose batch committed
	Duplicates int64 `json:"duplicates"` // dedup-acked resubmissions (ErrDuplicate)
	Rejected   int64 `json:"rejected"`   // admission-control rejections (ErrPoolFull)
	Errors     int64 `json:"errors"`     // submission failures (budget exhausted, shard closed, oversized)
	// TotalCommitNanos accumulates, for every accepted transaction, the
	// wall time of the submission it came in, from admission to its last
	// settle (a transaction's result reaches its caller with its batch's);
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

// SubmitAsync admits a transaction to the mempool and returns a buffered
// channel that receives its Result exactly once. An empty tx.ID is
// assigned here; callers that retry a failed submission should reuse the
// returned TxID so the mempool's duplicate suppression can collapse the
// retry (a retried transaction that is still pending, or that is in the
// chain already, is acked without being proposed again). It is
// SubmitBatch for one transaction, without the wait.
func (s *Shard) SubmitAsync(tx Tx) <-chan Result {
	return s.submit(encodeTxs([]Tx{tx}), s.txIDs, nil, nil).done
}

// SubmitBatch admits transactions in order and waits for all of them,
// returning results in input order. Transactions sharing a key keep their
// relative order through consensus.
func (s *Shard) SubmitBatch(txs []Tx) []Result { return s.submitAll(encodeTxs(txs)) }

// submitAll admits encoded transactions as one submission and waits for
// all of them. The caller is about to block, so the pool is told not to
// linger over a partial batch while consensus is idle.
func (s *Shard) submitAll(txs [][]byte) []Result {
	if len(txs) == 0 {
		return []Result{}
	}
	b := s.submit(txs, s.txIDs, nil, nil)
	s.pool.Flush()
	<-b.done
	return b.out
}

// encodeTxs encodes txs back to back into one buffer and returns each
// one's encoding, the form submit takes.
func encodeTxs(txs []Tx) [][]byte {
	size := 0
	for i := range txs {
		size += txSize(&txs[i])
	}
	buf := make([]byte, 0, size)
	encs := make([][]byte, len(txs))
	for i := range txs {
		from := len(buf)
		buf = AppendTx(buf, &txs[i])
		encs[i] = buf[from:]
	}
	return encs
}

// submission is one call's transactions on their way through the pool:
// their results in input order, how many are still unsettled, and the
// channel the last settle sends on — out[0], which is SubmitAsync's
// Result, and for a batch the word that out is complete.
type submission struct {
	s       *Shard
	start   time.Time
	out     []Result
	left    atomic.Int64
	done    chan Result
	settled func(Result)
}

// settle records tx i's outcome; the last one records the submission's
// stats and sends on done.
func (b *submission) settle(i int, err error) {
	err = sentinelErr(err)
	b.out[i].Err = err
	if b.settled != nil {
		b.settled(b.out[i])
	}
	if b.left.Add(-1) == 0 {
		b.s.record(b)
		b.done <- b.out[0]
	}
}

// submit is the one admission path, under SubmitAsync, SubmitBatch,
// Sharded.SubmitEncoded and SubmitPrivate. txs are transactions in
// AppendTx's encoding; submit reads each where it sits, never as a Tx,
// and copies it once, into one buffer for the whole submission. A
// transaction without an id gets the shard's next sequence number under
// prefix, spliced into its copy in place of the empty id field:
//
//	kind | 0x00 | rest  →  kind | uvarint(len) | id | rest
//
// which is byte for byte what AppendTx writes for it with that id, so
// its Merkle leaf is the same. Every id and ordering lane of the
// submission is a substring of one string. All of it is admitted to the
// pool in one AddBatch, which looks a minted id up neither among pending
// ops nor in the peers' id sets (see the claims below for why it can be
// in neither). minted, when not nil, sees each minted id before anything
// is admitted; settled, when not nil, sees each Result on whichever
// goroutine settles it, before the caller does.
//
// A caller may choose an id that has the form of one this shard mints.
// Skipping the dedup lookups for a minted id is exact because no earlier
// submission of this process can have carried it: the id is the shard's
// boot nonce and a sequence number the counter never hands out twice, and
// ids from before a restart carry another nonce. A caller can learn the
// nonce from any reply, though, and choose an id of the same form. One
// whose number the counter has not reached is refused (ErrUnmintedID): the
// shard never handed it out, so no honest caller holds it, and admitting
// it would let the shard mint it again later. One at or below the counter
// is a retry of a minted id, or a guess at one. Its minted op is in the
// pool or resolved once the submission that minted it has admitted: all
// minting holds Shard.mint for reading from the counter to the end of
// AddBatch, so taking the write lock once, after vetting, waits that
// submission out, and the claimer's own two lookups then see its op.
func (s *Shard) submit(txs [][]byte, prefix string, minted func(id string), settled func(Result)) *submission {
	b := &submission{s: s, start: time.Now(), out: make([]Result, len(txs)), done: make(chan Result, 1), settled: settled}
	b.left.Store(int64(len(txs)))
	s.statsMu.Lock()
	s.stats.Submitted += int64(len(txs))
	s.statsMu.Unlock()

	// Read each tx once: refuse what no peer could apply, vet the claims,
	// note its id and lane, and size the id string and the buffer.
	refs := make([]struct{ id, lane []byte }, len(txs))
	admit, fresh, strBytes, encBytes, claimed := 0, 0, 0, 0, false
	for i, enc := range txs {
		v, ok := ViewTx(enc)
		if !ok {
			// AppendTx wrote it, so only its nesting can be at fault:
			// every peer's decoder would refuse it after it committed.
			b.settle(i, fmt.Errorf("%w: deeper than %d levels, or not a transaction", ErrTxTooDeep, maxWritesDepth))
			continue
		}
		if len(v.ID) == 0 {
			fresh++
		} else if n, ok := s.mintedNumber(v.ID); ok {
			if n > s.seq.Load() {
				b.out[i].TxID = string(v.ID)
				b.settle(i, fmt.Errorf("%w: %s", ErrUnmintedID, v.ID))
				continue
			}
			claimed = true
		}
		admit++
		refs[i].id, refs[i].lane = v.ID, v.lane()
		strBytes += len(v.ID) + len(refs[i].lane)
		encBytes += len(enc)
	}
	if admit == 0 {
		return b
	}
	if claimed {
		// A barrier, held for no work: it waits out every submission that
		// was minting when the claim was vetted, since one of them may
		// hold the claimed id and not have admitted it yet.
		s.mint.Lock()
		s.mint.Unlock()
	}
	s.mint.RLock()
	defer s.mint.RUnlock()
	var digits [20]byte
	next, idMax := uint64(0), 0 // the first number minted here; the longest id it can make
	if fresh > 0 {
		last := s.seq.Add(uint64(fresh))
		next = last - uint64(fresh) + 1
		idMax = len(prefix) + len(strconv.AppendUint(digits[:0], last, 10))
	}
	var ids strings.Builder
	ids.Grow(strBytes + fresh*idMax)
	buf := make([]byte, 0, encBytes+fresh*(uvarintSize(uint64(idMax))+idMax-1))
	ops := make([]mempool.Op, 0, admit)
	for i, enc := range txs {
		if b.out[i].Err != nil { // refused above
			continue
		}
		// ids never outgrows what Grow gave it, and a Builder never
		// rewrites what its strings hold, so each substring is final.
		from := ids.Len()
		assign := len(refs[i].id) == 0
		if assign {
			ids.WriteString(prefix)
			ids.Write(strconv.AppendUint(digits[:0], next, 10))
			next++
		} else {
			ids.Write(refs[i].id)
		}
		id := ids.String()[from:]
		lane := id
		if len(refs[i].lane) > 0 {
			from = ids.Len()
			ids.Write(refs[i].lane)
			lane = ids.String()[from:]
		}
		b.out[i].TxID = id
		n := len(enc)
		if assign {
			n += uvarintSize(uint64(len(id))) + len(id) - 1
			if minted != nil {
				minted(id)
			}
		}
		if n > s.cfg.MaxTxBytes {
			b.settle(i, fmt.Errorf("%w: %d bytes (limit %d)", ErrTxTooLarge, n, s.cfg.MaxTxBytes))
			continue
		}
		from = len(buf)
		if assign {
			buf = append(wire.AppendString(append(buf, enc[0]), id), enc[2:]...)
		} else {
			buf = append(buf, enc...)
		}
		ops = append(ops, mempool.Op{ID: id, Lane: lane, Data: buf[from:len(buf):len(buf)], Minted: assign})
	}
	if len(ops) == 0 {
		return b
	}
	settle := b.settle
	if len(ops) < len(txs) {
		// Each op's tx index. Nothing admitted has settled yet, so the
		// txs without an error are exactly the ops.
		at := make([]int, 0, len(ops))
		for i := range b.out {
			if b.out[i].Err == nil {
				at = append(at, i)
			}
		}
		settle = func(i int, err error) { b.settle(at[i], err) }
	}
	s.pool.AddBatch(ops, settle)
	return b
}

// mintedNumber reports whether id has the form of an id this shard
// mints, and its sequence number.
func (s *Shard) mintedNumber(id []byte) (uint64, bool) {
	prefix, n, ok := splitID(id)
	if !ok || (string(prefix) != s.txIDs[:len(s.txIDs)-1] && string(prefix) != s.ptxIDs[:len(s.ptxIDs)-1]) {
		return 0, false
	}
	return n, true
}

// record adds a settled submission to the shard's stats. Every accepted
// transaction is charged the submission's wall time: its result reaches
// the caller only when the last one settles.
func (s *Shard) record(b *submission) {
	var accepted, dups, rejected, errs int64
	for i := range b.out {
		switch err := b.out[i].Err; {
		case err == nil:
			accepted++
		case errors.Is(err, ErrDuplicate):
			// The original committed; this resubmission was only acked, so it
			// neither counts as a fresh commit nor pollutes commit latency.
			dups++
		case errors.Is(err, ErrPoolFull):
			rejected++
		default:
			errs++
		}
	}
	ns := time.Since(b.start).Nanoseconds()
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	s.stats.Accepted += accepted
	s.stats.TotalCommitNanos += ns * accepted
	s.stats.Duplicates += dups
	s.stats.Rejected += rejected
	s.stats.Errors += errs
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

// SubmitBatch routes a batch of single-shard transactions to their home
// shards, each of which admits its share as one batch, and waits for all
// of them, returning results in input order. Like Shard.SubmitBatch it
// does not linger in front of idle consensus.
func (c *Sharded) SubmitBatch(txs []Tx) []Result { return c.SubmitEncoded(encodeTxs(txs)) }

// SubmitEncoded is SubmitBatch for transactions already in AppendTx's
// encoding, an empty id field where the shard is to mint one: the batch
// route hands its body's transactions over as they sit in it. Each is
// copied once, during the call; nothing of txs is kept after it returns.
func (c *Sharded) SubmitEncoded(txs [][]byte) []Result {
	if len(c.shards) == 1 {
		return c.shards[0].submitAll(txs)
	}
	if len(txs) == 0 {
		return []Result{}
	}
	home := make([]int, len(txs))
	per := make([][][]byte, len(c.shards))
	for i, enc := range txs {
		v, _ := ViewTx(enc) // one that does not read is refused wherever it goes
		home[i] = shardIndex(v.Key, len(c.shards))
		per[home[i]] = append(per[home[i]], enc)
	}
	subs := make([]*submission, len(c.shards))
	for k, part := range per {
		if len(part) > 0 {
			subs[k] = c.shards[k].submit(part, c.shards[k].txIDs, nil, nil)
		}
	}
	// Every shard, not only the ones this batch touched: elsewhere there
	// is nothing of ours queued, and cutting short another producer's
	// linger costs at most some batch fill.
	for _, s := range c.shards {
		s.pool.Flush()
	}
	for _, b := range subs {
		if b != nil {
			<-b.done
		}
	}
	out := make([]Result, len(txs))
	next := make([]int, len(c.shards))
	for i, k := range home {
		out[i] = subs[k].out[next[k]]
		next[k]++
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
