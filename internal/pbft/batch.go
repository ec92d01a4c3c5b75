package pbft

import (
	"fmt"
	"time"

	"prever/internal/mempool"
)

// Batched submission: the mempool's Batcher packs many operations into a
// single PBFT request (framed by mempool.EncodeBatch), so one three-phase
// instance orders the whole batch and the apply callback fans it back
// out with mempool.DecodeBatch, which returns the operations in place.
// The batch rides the normal client path — one client sequence number
// per batch — so the cluster's executed-request dedup gives the entire
// batch exactly-once semantics across retries.

// Pending is an in-flight client submission started by Start: the fast
// path has already handed the request to a replica; Wait falls back to
// the full failover retry loop — with the SAME client sequence number, so
// dedup holds — if that first attempt stalls.
type Pending struct {
	c    *Client
	seq  uint64
	op   []byte
	done <-chan struct{} // eager attempt's execution signal (nil if none)
}

// Start begins submitting op and returns immediately. The request is
// handed eagerly to the preferred replica (the live primary when there is
// one), which sequences it on arrival: two Starts issued in order on a
// stable primary are pre-prepared in that order, which is what lets a
// batcher pipeline submissions without reordering them.
func (c *Client) Start(op []byte) *Pending {
	p := &Pending{c: c, seq: c.seq.Add(1), op: op}
	if r := c.pick(0); r != nil {
		p.done = r.SubmitAsync(c.name, p.seq, op)
	}
	return p
}

// Wait blocks until the submission executes or the budget elapses,
// retrying across view changes and primary crashes like Submit. Retries
// reuse the Pending's sequence number, so the operation executes exactly
// once no matter how many attempts it takes.
func (p *Pending) Wait(budget time.Duration) error {
	deadline := time.Now().Add(budget)
	if p.done != nil {
		try := p.c.opts.TryTimeout
		if rem := time.Until(deadline); rem < try {
			try = rem
		}
		if try > 0 {
			tmr := time.NewTimer(try)
			select {
			case <-p.done:
				tmr.Stop()
				return nil
			case <-tmr.C:
			}
		}
		p.done = nil
	}
	rem := time.Until(deadline)
	if rem <= 0 {
		return fmt.Errorf("pbft: pending submission budget exhausted")
	}
	return p.c.submit(p.seq, p.op, rem)
}

// StartBatch begins submitting ops as one batched request (see Start).
func (c *Client) StartBatch(ops [][]byte) *Pending {
	return c.Start(mempool.EncodeBatch(ops))
}

// SubmitBatch orders ops as one batched request under a single client
// sequence number, with the same failover behaviour as Submit.
func (c *Client) SubmitBatch(ops [][]byte, budget time.Duration) error {
	return c.Submit(mempool.EncodeBatch(ops), budget)
}
