package pbft

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prever/internal/netsim"
)

// ClientOptions tunes the failover client's retry behaviour.
type ClientOptions struct {
	// TryTimeout bounds one attempt (default 1s). With the default
	// ViewTimeout (2s) an attempt can end before the view change that
	// replaces a dead primary completes; the retry loop then carries the
	// same client seq across it, so the request still executes once.
	TryTimeout time.Duration
	Backoff    time.Duration // initial retry backoff (default 10ms)
	MaxBackoff time.Duration // backoff cap (default 320ms)
}

func (o *ClientOptions) withDefaults() {
	if o.TryTimeout <= 0 {
		o.TryTimeout = time.Second
	}
	if o.Backoff <= 0 {
		o.Backoff = 10 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 320 * time.Millisecond
	}
}

// Client submits operations to a PBFT cluster and survives primary
// crashes: each attempt goes to the live primary if there is one, else
// rotates across live backups (whose view-change timers replace the dead
// primary), with exponential backoff between attempts. Retries reuse the
// same client sequence number, so the cluster's executed-request dedup
// makes a retried operation execute exactly once.
type Client struct {
	name string
	net  *netsim.Network
	opts ClientOptions
	seq  atomic.Uint64

	mu       sync.Mutex
	replicas []*Replica
}

// SetReplicas swaps the replica set the client fails over across —
// needed when a crashed replica is rebuilt from its data directory (the
// recovered object replaces the dead one). The client identity and
// sequence counter are kept: the cluster's dedup state recognises
// retries across the swap.
func (c *Client) SetReplicas(replicas []*Replica) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replicas = append([]*Replica(nil), replicas...)
}

// NewClient builds a failover client over the given replicas. name is the
// PBFT client identity used for request deduplication.
func NewClient(net *netsim.Network, replicas []*Replica, name string, opts ClientOptions) (*Client, error) {
	if len(replicas) == 0 {
		return nil, errors.New("pbft: client needs at least one replica")
	}
	opts.withDefaults()
	return &Client{name: name, net: net, replicas: replicas, opts: opts}, nil
}

// Submit orders an operation, retrying across view changes and primary
// crashes until it executes or the budget elapses.
func (c *Client) Submit(op []byte, budget time.Duration) error {
	return c.submit(c.seq.Add(1), op, budget)
}

// submit runs the retry loop for one (seq, op) pair. Every attempt reuses
// seq, so the cluster's executed-request dedup collapses retries into
// exactly one execution.
func (c *Client) submit(seq uint64, op []byte, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	backoff := c.opts.Backoff
	lastErr := errors.New("pbft: no live replica")
	for attempt := 0; ; attempt++ {
		if r := c.pick(attempt); r != nil {
			try := c.opts.TryTimeout
			if rem := time.Until(deadline); rem < try {
				try = rem
			}
			if try > 0 {
				err := r.Submit(c.name, seq, op, try)
				if err == nil {
					return nil
				}
				lastErr = err
			}
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("pbft: client retries exhausted: %w", lastErr)
		}
		sleep := backoff
		if rem := time.Until(deadline); rem < sleep {
			sleep = rem
		}
		if sleep > 0 {
			time.Sleep(sleep)
		}
		backoff *= 2
		if backoff > c.opts.MaxBackoff {
			backoff = c.opts.MaxBackoff
		}
	}
}

// pick prefers the live primary on a first attempt; retries rotate
// across all live replicas. A replica that was isolated through a view
// change still claims the old view's primaryship, so a primary claim is
// not trusted after a failure — submitting via a backup broadcasts the
// request, which arms view-change timers everywhere and reaches the
// real primary wherever it is.
func (c *Client) pick(attempt int) *Replica {
	c.mu.Lock()
	replicas := c.replicas
	c.mu.Unlock()
	if attempt == 0 {
		for _, r := range replicas {
			if c.net.Alive(r.ID()) && r.IsPrimary() {
				return r
			}
		}
	}
	var alive []*Replica
	for _, r := range replicas {
		if c.net.Alive(r.ID()) {
			alive = append(alive, r)
		}
	}
	if len(alive) == 0 {
		return nil
	}
	return alive[attempt%len(alive)]
}
