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
//     An op the producer marks Minted skips both lookups: its ID was
//     made up for this add, so it can be neither.
//   - Admission control. The pool holds at most Cap unresolved ops
//     (queued + in flight); beyond that Add returns ErrFull (AddBatch
//     settles the op with it). This is the
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
	"sync"
	"time"
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
	// Minted says the producer made ID up for this add and never handed
	// it out before: it can be neither pending nor executed, so the pool
	// looks it up in neither place. An ID that a caller chose, or one
	// handed back on a retry, is never Minted.
	Minted bool
}

// lanes is the number of key-hashed lanes of every pool.
const lanes = 8

// laneIndex maps an ordering key onto one of the lanes with fnv-1a.
func laneIndex(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % lanes)
}

// lane is one FIFO of queued ops. A drained slot is cleared, so the lane
// pins nothing of an op that left it, and the slice is reused from the
// front, so a lane allocates only when it outgrows its longest backlog.
type lane struct {
	ops  []Op
	head int // ops[head:] are queued
}

func (l *lane) push(op Op) { l.ops = append(l.ops, op) }

func (l *lane) empty() bool { return l.head == len(l.ops) }

func (l *lane) pop() Op {
	op := l.ops[l.head]
	l.ops[l.head] = Op{}
	l.head++
	switch {
	case l.head == len(l.ops):
		l.ops, l.head = l.ops[:0], 0
	case 2*l.head >= len(l.ops): // never dry: move the backlog to the front
		n := copy(l.ops, l.ops[l.head:])
		clear(l.ops[n:])
		l.ops, l.head = l.ops[:n], 0
	}
	return op
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

// The defaults NewPool resolves zero Config fields to.
const (
	DefaultCap           = 4096
	DefaultBatchSize     = 64
	DefaultFlushInterval = 500 * time.Microsecond
	DefaultMaxInFlight   = 4
)

// Config sizes a Pool and its Batcher. NewPool resolves zero fields to
// the defaults above; a pool never changes its configuration.
type Config struct {
	Cap       int // admission bound on unresolved ops
	BatchSize int // max ops per consensus instance
	// FlushInterval is how long a partial batch lingers for more ops; a
	// negative one proposes it at once.
	FlushInterval time.Duration
	MaxInFlight   int // pipelined consensus instances

	// Executed reports whether the application already executed the op
	// with this ID. Add and AddBatch ask it about an ID that is neither
	// pending nor Minted, as a rule without the pool's lock held, so it
	// may wait on the application's own locks; when an op resolved while
	// it answered, they ask again under the lock, so it must not call
	// back into the pool. Nil means no application to ask:
	// a resolved ID is admitted again and the applier dedups by ID itself.
	Executed func(id string) bool
}

// withDefaults resolves zero fields to the package defaults.
func (c Config) withDefaults() Config {
	if c.Cap <= 0 {
		c.Cap = DefaultCap
	}
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = DefaultFlushInterval
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	return c
}

// ack is one outcome owed: index i of the batch settle belongs to.
type ack struct {
	settle func(i int, err error)
	i      int
}

// opState is an unresolved op's ack fan-out: the add that admitted it and
// any that attached to it while it was pending. It is a map value, so an
// admitted op costs the pool no allocation of its own.
type opState struct {
	first ack
	more  []ack
}

// refusal is an op that admit neither queued nor attached, and why.
type refusal struct {
	i   int
	err error // ErrDuplicate, ErrFull or ErrClosed
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
	lanes    [lanes]lane
	rr       int                // round-robin drain cursor
	states   map[string]opState // every unresolved op, queued or in flight
	queued   int
	inFlight int
	flush    bool   // Flush was called since the last drain
	resolved uint64 // Resolve and Close calls so far: an op can leave the pool only through one
	notify   chan struct{}
	closed   bool
	stats    PoolStats
}

// NewPool builds a pool; zero Config fields take the defaults.
func NewPool(cfg Config) *Pool {
	return &Pool{
		cfg:    cfg.withDefaults(),
		states: make(map[string]opState),
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
// error. It is AddBatch for one op.
func (p *Pool) Add(op Op, done func(error)) error {
	if done == nil {
		done = func(error) {}
	}
	refused := p.admit([]Op{op}, func(_ int, err error) { done(err) })
	if len(refused) == 0 {
		return nil
	}
	if err := refused[0].err; err != ErrDuplicate {
		return err
	}
	done(ErrDuplicate)
	return nil
}

// AddBatch admits ops in order under one hold of the pool's lock, each as
// Add would. settle(i, err) is invoked exactly once for every index of
// ops with that op's outcome: nil when its batch committed, ErrDuplicate,
// ErrFull, ErrClosed, or the error its batch resolved with. Refusals are
// settled before AddBatch returns, the rest when their batches resolve.
// One settle function serves the whole batch: the pool allocates nothing
// per op for its acks.
func (p *Pool) AddBatch(ops []Op, settle func(i int, err error)) {
	for _, r := range p.admit(ops, settle) {
		settle(r.i, r.err)
	}
}

// Answers of Config.Executed, asked before admission.
const (
	unasked int8 = iota
	notExecuted
	executed
)

// admit queues ops or attaches them to their pending twins, and returns
// the ones it did neither to, unsettled.
//
// The application is asked about the IDs that are neither Minted nor
// pending between two holds of the lock, so that no other admission, no
// drain and no Resolve waits while it answers. An answer is used only if
// no op left the pool in between: an ID not pending at the first hold
// and still not pending at the second then never was in between, so it
// had executed, if ever, before the question was put. Otherwise, and
// for an ID pending at the first hold and not at the second, the
// application is asked again under the lock.
func (p *Pool) admit(ops []Op, settle func(int, error)) (refused []refusal) {
	p.mu.Lock()
	var answers []int8 // by op index, valid while fresh
	fresh := false
	if p.cfg.Executed != nil && !p.closed {
		for i := range ops {
			if _, pending := p.states[ops[i].ID]; ops[i].Minted || pending {
				continue
			}
			if answers == nil {
				answers = make([]int8, len(ops))
			}
			answers[i] = notExecuted
		}
		if answers != nil {
			resolved := p.resolved
			p.mu.Unlock()
			for i := range ops {
				if answers[i] != unasked && p.cfg.Executed(ops[i].ID) {
					answers[i] = executed
				}
			}
			p.mu.Lock()
			fresh = p.resolved == resolved
		}
	}
	if p.closed {
		p.mu.Unlock()
		refused = make([]refusal, len(ops))
		for i := range refused {
			refused[i] = refusal{i, ErrClosed}
		}
		return refused
	}
	queued := false
	for i := range ops {
		op := &ops[i]
		a := ack{settle, i}
		if !op.Minted {
			if st, ok := p.states[op.ID]; ok {
				st.more = append(st.more, a)
				p.states[op.ID] = st
				p.stats.DupPending++
				continue
			}
			answer := unasked
			if fresh {
				answer = answers[i]
			}
			if answer == executed || answer == unasked && p.cfg.Executed != nil && p.cfg.Executed(op.ID) {
				p.stats.DupExecuted++
				refused = append(refused, refusal{i, ErrDuplicate})
				continue
			}
		}
		if p.queued+p.inFlight >= p.cfg.Cap {
			p.stats.RejectedFull++
			refused = append(refused, refusal{i, ErrFull})
			continue
		}
		p.lanes[laneIndex(op.Lane)].push(*op)
		p.states[op.ID] = opState{first: a}
		p.queued++
		p.stats.Admitted++
		queued = true
	}
	p.mu.Unlock()
	if queued {
		p.wake()
	}
	return refused
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
		n := len(out)
		for i := 0; i < lanes; i++ {
			l := &p.lanes[(p.rr+i)%lanes]
			if l.empty() {
				continue
			}
			out = append(out, l.pop())
			p.rr = (p.rr + i + 1) % lanes
			p.queued--
			p.inFlight++
			break
		}
		if len(out) == n {
			break // all lanes empty despite queued>0: unreachable guard
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
	acks := make([]ack, 0, len(ops))
	p.mu.Lock()
	p.resolved++
	for i := range ops {
		st, ok := p.states[ops[i].ID]
		if !ok {
			continue // not this batch's op (defensive)
		}
		delete(p.states, ops[i].ID)
		p.inFlight--
		acks = append(append(acks, st.first), st.more...)
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
	for _, a := range acks {
		a.settle(a.i, err)
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
	p.resolved++
	var acks []ack
	for i := range p.lanes {
		l := &p.lanes[i]
		for _, op := range l.ops[l.head:] {
			st := p.states[op.ID]
			delete(p.states, op.ID)
			p.queued--
			acks = append(append(acks, st.first), st.more...)
			p.stats.Failed++
		}
		*l = lane{}
	}
	p.mu.Unlock()
	p.wake()
	for _, a := range acks {
		a.settle(a.i, ErrClosed)
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
