// Package mempool is the pending pool in front of the consensus
// substrates (paxos, pbft, the sharded chain): producers add operations,
// a leader-side Batcher drains them into batched consensus proposals with
// pipelined in-flight instances, and per-operation acks are demultiplexed
// back to the producers when a batch commits.
//
// Three properties the rest of the system leans on:
//
//   - Duplicate suppression. An op whose ID is already pending attaches to
//     the existing entry (one proposal, many acks). The pool remembers
//     nothing about a resolved op: whether a non-pending ID already
//     executed is the application's fact (Config.Executed), and an ID it
//     vouches for is acked immediately instead of being proposed again.
//   - Admission control. The pool holds at most Cap unresolved ops
//     (queued + in flight); beyond that Add returns ErrFull. This is the
//     system's first overload shedding point — a caller that sees ErrFull
//     backs off instead of growing an unbounded queue.
//   - Per-lane ordering. Ops are queued on key-hashed lanes (fnv-1a of
//     the lane key) and each lane drains FIFO, so two ops with the same
//     lane key are always proposed — and, with in-order dispatch,
//     applied — in submission order.
//
// The package also owns the one batch framing (EncodeBatch/DecodeBatch)
// that the paxos and pbft clients write and every applier reads.
package mempool

import (
	"errors"
	"hash/fnv"
	"sync"
	"time"

	"prever/internal/conf"
)

// Op is one operation awaiting consensus.
type Op struct {
	// ID identifies the op for duplicate suppression; it must be unique
	// per logical operation (retries reuse it).
	ID string
	// Lane is the ordering key: ops with equal Lane values are proposed in
	// submission order. Typically the producer or the row key.
	Lane string
	// Data is the opaque payload handed to consensus.
	Data []byte
}

// lanes is the number of key-hashed lanes of every pool.
const lanes = 8

// laneIndex maps an ordering key onto one of the lanes with fnv-1a.
func laneIndex(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % lanes)
}

// Errors returned by Add (directly or through the ack callback).
var (
	// ErrFull reports that the pool is at its admission cap.
	ErrFull = errors.New("mempool: pool full")
	// ErrClosed reports that the pool was closed.
	ErrClosed = errors.New("mempool: pool closed")
	// ErrDuplicate reports that the op's ID already executed
	// (Config.Executed said so): the original committed, so the add is
	// acked with this sentinel instead of being proposed again. It marks
	// success with a flag, not failure — callers branch on it to mean
	// "already committed", and the HTTP layer maps it to 409.
	ErrDuplicate = errors.New("mempool: duplicate op (already executed)")
)

// Config sizes a Pool and its Batcher. NewPool fills zero fields from the
// conf snapshot of that moment; a pool never changes its configuration.
type Config struct {
	Cap           int           // admission bound on unresolved ops
	BatchSize     int           // max ops per consensus instance
	FlushInterval time.Duration // partial-batch linger
	MaxInFlight   int           // pipelined consensus instances

	// Executed reports whether the application already executed the op
	// with this ID. Add calls it under the pool's lock for an ID that is
	// not pending, so it must not block. Nil means no application to ask:
	// a resolved ID is admitted again and the applier dedups by ID itself.
	Executed func(id string) bool
}

// withDefaults fills zero fields from the boot configuration.
func (c Config) withDefaults() Config {
	d := conf.Snapshot()
	if c.Cap <= 0 {
		c.Cap = d.MempoolCap
	}
	if c.BatchSize <= 0 {
		c.BatchSize = d.BatchSize
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = d.FlushInterval
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = d.MaxInFlight
	}
	return c
}

// opState tracks one unresolved op: its ack fan-out and whether it is
// still queued (false once drained into an in-flight batch).
type opState struct {
	acks   []func(error)
	queued bool
}

// PoolStats is a snapshot of the pool's admission and dedup counters.
// JSON tags make it part of the unified stats shape internal/api serves
// at /stats.
type PoolStats struct {
	// Depth is the number of ops queued in lanes (not yet drained).
	Depth int `json:"depth"`
	// InFlight is the number of ops drained into proposals that have not
	// resolved yet.
	InFlight int `json:"inFlight"`
	// Admitted counts ops accepted into the pool.
	Admitted int64 `json:"admitted"`
	// RejectedFull counts ops refused by admission control.
	RejectedFull int64 `json:"rejectedFull"`
	// DupPending counts adds that attached to an already-pending op.
	DupPending int64 `json:"dupPending"`
	// DupExecuted counts adds acked immediately because the ID had
	// already executed.
	DupExecuted int64 `json:"dupExecuted"`
	// Acked / Failed count resolved ops by outcome.
	Acked  int64 `json:"acked"`
	Failed int64 `json:"failed"`
}

// Pool is the pending pool. One Batcher drains it; any number of
// producers Add concurrently.
type Pool struct {
	cfg Config // resolved at NewPool, never written after

	mu       sync.Mutex
	lanes    [lanes][]Op
	rr       int // round-robin drain cursor
	states   map[string]*opState
	queued   int
	inFlight int
	flush    bool // Flush was called since the last drain
	notify   chan struct{}
	closed   bool
	stats    PoolStats
}

// NewPool builds a pool; zero Config fields default from conf, once.
func NewPool(cfg Config) *Pool {
	return &Pool{
		cfg:    cfg.withDefaults(),
		states: make(map[string]*opState),
		notify: make(chan struct{}, 1),
	}
}

// Config returns the configuration the pool was built with, defaults
// resolved.
func (p *Pool) Config() Config { return p.cfg }

// Add admits op. done is invoked exactly once with the op's outcome (nil
// when the op's batch committed). Duplicate IDs attach to the pending op
// or — if Config.Executed knows the ID — are acked immediately with
// ErrDuplicate; neither is proposed again. Returns ErrFull at the
// admission cap and ErrClosed after Close; done is not invoked on either
// error.
func (p *Pool) Add(op Op, done func(error)) error {
	if done == nil {
		done = func(error) {}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if st, ok := p.states[op.ID]; ok {
		st.acks = append(st.acks, done)
		p.stats.DupPending++
		p.mu.Unlock()
		return nil
	}
	if p.cfg.Executed != nil && p.cfg.Executed(op.ID) {
		p.stats.DupExecuted++
		p.mu.Unlock()
		done(ErrDuplicate)
		return nil
	}
	if p.queued+p.inFlight >= p.cfg.Cap {
		p.stats.RejectedFull++
		p.mu.Unlock()
		return ErrFull
	}
	lane := laneIndex(op.Lane)
	p.lanes[lane] = append(p.lanes[lane], op)
	p.states[op.ID] = &opState{acks: []func(error){done}, queued: true}
	p.queued++
	p.stats.Admitted++
	p.mu.Unlock()
	p.wake()
	return nil
}

// drainLocked removes up to max ops, round-robin across lanes one op at a
// time from the drain cursor, so every lane keeps FIFO order and no lane
// starves. The drained ops move from queued to in-flight.
func (p *Pool) drainLocked(max int) []Op {
	if p.queued == 0 || max <= 0 {
		return nil
	}
	p.flush = false
	out := make([]Op, 0, min(max, p.queued))
	for len(out) < max && p.queued > 0 {
		for i := 0; i < lanes; i++ {
			lane := (p.rr + i) % lanes
			if len(p.lanes[lane]) == 0 {
				continue
			}
			op := p.lanes[lane][0]
			p.lanes[lane] = p.lanes[lane][1:]
			p.rr = (lane + 1) % lanes
			p.queued--
			p.inFlight++
			if st, ok := p.states[op.ID]; ok {
				st.queued = false
			}
			out = append(out, op)
			break
		}
		if len(out) == 0 {
			break // all lanes empty despite queued>0: unreachable guard
		}
		if p.queued == 0 || len(out) == max {
			break
		}
	}
	return out
}

// Flush marks the end of a producer's burst: what is queued now goes out
// as soon as no drained batch is unresolved, instead of lingering for
// FlushInterval. Lingering buys larger batches only while consensus is
// busy; in front of an idle one it is latency for nothing (and more than
// it says: a sub-millisecond timer in an otherwise idle Go process fires
// on the poller's millisecond tick). Never later than without the call.
func (p *Pool) Flush() {
	p.mu.Lock()
	p.flush = p.queued > 0
	wake := p.flush && p.inFlight == 0
	p.mu.Unlock()
	if wake {
		p.wake()
	}
}

func (p *Pool) wake() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// WaitBatch blocks until a batch is ready and drains it: immediately once
// BatchSize ops are queued, after FlushInterval with whatever arrived, or
// after a Flush once nothing is in flight. It returns nil when stop closes
// or the pool closes. Single consumer — the Batcher's dispatch loop.
func (p *Pool) WaitBatch(stop <-chan struct{}) []Op {
	var flush *time.Timer
	var flushC <-chan time.Time
	defer func() {
		if flush != nil {
			flush.Stop()
		}
	}()
	flushing := false
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil
		}
		if p.queued >= p.cfg.BatchSize || (p.queued > 0 && (flushing || p.cfg.FlushInterval <= 0 || (p.flush && p.inFlight == 0))) {
			ops := p.drainLocked(p.cfg.BatchSize)
			p.mu.Unlock()
			return ops
		}
		armed := p.queued > 0
		p.mu.Unlock()
		if armed && flushC == nil {
			flush = time.NewTimer(p.cfg.FlushInterval)
			flushC = flush.C
		}
		select {
		case <-stop:
			return nil
		case <-p.notify:
			// new op arrived; re-check fill level
		case <-flushC:
			flushing = true
			flushC = nil
		}
	}
}

// Resolve completes a drained batch: every op's acks fire with err and
// the ops leave the pool entirely. Whether a later retry is a duplicate
// is then Config.Executed's answer: after a failure that did not execute
// the op, the retry is re-admitted (and re-proposed).
func (p *Pool) Resolve(ops []Op, err error) {
	var acks []func(error)
	p.mu.Lock()
	for _, op := range ops {
		st, ok := p.states[op.ID]
		if !ok || st.queued {
			continue // not this batch's op (defensive)
		}
		delete(p.states, op.ID)
		p.inFlight--
		acks = append(acks, st.acks...)
		if err == nil {
			p.stats.Acked++
		} else {
			p.stats.Failed++
		}
	}
	wake := p.flush && p.inFlight == 0
	p.mu.Unlock()
	if wake {
		p.wake()
	}
	for _, ack := range acks {
		ack(err)
	}
}

// Close rejects future adds, wakes the batch waiter, and fails every
// queued (undrained) op with ErrClosed. In-flight batches resolve through
// Resolve as usual.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	var acks []func(error)
	for lane, ops := range p.lanes {
		for _, op := range ops {
			if st, ok := p.states[op.ID]; ok && st.queued {
				delete(p.states, op.ID)
				p.queued--
				acks = append(acks, st.acks...)
				p.stats.Failed++
			}
		}
		p.lanes[lane] = nil
	}
	p.mu.Unlock()
	p.wake()
	for _, ack := range acks {
		ack(ErrClosed)
	}
	return nil
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Depth = p.queued
	s.InFlight = p.inFlight
	return s
}
