package paxos

import (
	"errors"
	"time"

	"prever/internal/mempool"
)

// Batched proposals: the mempool's Batcher packs many operations into one
// log slot. A batch is an ordinary opaque value at the consensus layer,
// framed by mempool.EncodeBatch; the applier fans the slot back out into
// its operations with mempool.DecodeBatch.

// Pending is an in-flight client proposal started by Start: the fast path
// holds an eager slot on the trusted leader; Wait falls back to the full
// failover Propose loop if that slot is lost or times out.
type Pending struct {
	c     *Client
	value []byte
	via   *Replica         // replica the eager proposal went to (nil if none)
	prop  *PendingProposal // eager proposal handle (nil if none)
}

// Start begins proposing value and returns immediately. The slot is
// assigned eagerly on the trusted leader when one is available, which is
// what fixes the log order of pipelined proposals at dispatch time: two
// Starts issued in order on a stable leader commit in that order. When no
// leader is trusted yet, the proposal simply starts inside Wait's
// failover loop instead.
func (c *Client) Start(value []byte) *Pending {
	p := &Pending{c: c, value: value}
	if r := c.leaderFor(0); r != nil {
		if prop, err := r.ProposeAsync(value); err == nil {
			p.via = r
			p.prop = prop
		}
	}
	return p
}

// Wait blocks until the proposal commits or the budget elapses, failing
// over across leader crashes and lost slots like Propose. It returns the
// slot the value committed into. As with Propose, a retry after a timeout
// (as opposed to ErrSlotLost) can commit the value twice in different
// slots; exactly-once callers deduplicate by operation ID when applying.
func (p *Pending) Wait(budget time.Duration) (uint64, error) {
	deadline := time.Now().Add(budget)
	if p.prop != nil {
		try := p.c.opts.TryTimeout
		if rem := time.Until(deadline); rem < try {
			try = rem
		}
		if try > 0 {
			slot, err := p.prop.Wait(try)
			if err == nil {
				return slot, nil
			}
			if !errors.Is(err, ErrSlotLost) {
				// Timeout or demotion: stop trusting this leader, exactly as
				// the synchronous path does.
				p.c.mu.Lock()
				if p.c.leader == p.via {
					p.c.leader = nil
				}
				p.c.mu.Unlock()
			}
		}
		p.prop = nil
	}
	rem := time.Until(deadline)
	if rem <= 0 {
		return 0, errors.New("paxos: pending proposal budget exhausted")
	}
	return p.c.Propose(p.value, rem)
}

// StartBatch begins proposing ops as one batched value (see Start).
func (c *Client) StartBatch(ops [][]byte) *Pending {
	return c.Start(mempool.EncodeBatch(ops))
}

// ProposeBatch replicates ops as one batched value into a single slot,
// with the same failover behaviour as Propose.
func (c *Client) ProposeBatch(ops [][]byte, budget time.Duration) (uint64, error) {
	return c.Propose(mempool.EncodeBatch(ops), budget)
}
