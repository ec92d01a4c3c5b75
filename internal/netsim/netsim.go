// Package netsim provides an in-process simulated network for PReVer's
// distributed substrates (Paxos, PBFT, MPC). Nodes register handlers;
// messages are delivered asynchronously with configurable latency, jitter,
// drop probability, duplication, reordering, partitions, and node
// crash/restart, so protocol implementations are
// exercised against realistic (mis)behaviour without real sockets.
//
// Each node's handler runs on a single dedicated goroutine, so a node never
// processes two messages concurrently — the same execution model as a
// single-threaded event loop per replica. Post queues a function on that
// goroutine, at once or after a delay, so a node's own timers and calls
// from outside it join the same loop, in arrival order with its messages.
//
// Fault injection is seeded: with Config.Seed set, every drop, duplicate,
// and reorder decision is drawn from one deterministic stream, so a failing
// chaos schedule reproduces from its logged seed (up to goroutine
// interleaving, which the runtime controls).
package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Message is one network message.
type Message struct {
	From    string
	To      string
	Type    string
	Payload []byte
}

// Handler processes a delivered message.
type Handler func(Message)

// Config tunes the simulated link behaviour.
type Config struct {
	Latency       time.Duration // base one-way delay
	Jitter        time.Duration // uniform extra delay in [0, Jitter)
	DropRate      float64       // probability a message is silently dropped
	DuplicateRate float64       // probability a message is delivered twice
	ReorderRate   float64       // probability a message is held back by ReorderDelay
	ReorderDelay  time.Duration // extra delay for reordered messages (default 1ms)
	Seed          int64         // RNG seed for all fault decisions (0 = time-based)
	Buffer        int           // per-node inbox size (default 1024)
}

// Network is the hub all nodes attach to. Safe for concurrent use.
type Network struct {
	cfg Config

	mu        sync.RWMutex
	nodes     map[string]*node
	partition map[string]int // node -> partition group; absent = group 0
	closed    bool

	rngMu sync.Mutex
	rng   *rand.Rand

	sent      atomic.Int64
	delivered atomic.Int64
	dropped   atomic.Int64

	wg sync.WaitGroup
}

// node is one attachment generation. Crash empties and stops its queue;
// Restart installs a fresh node struct under the same id, so goroutines
// and in-flight deliveries bound to the old generation can never leak
// messages or posts into the new one.
type node struct {
	handler Handler
	done    chan struct{} // closed when the handler goroutine returns
	// stopped is set, under mu, by Crash and by Close: nothing more is
	// queued. Send, deliver and Alive read it without mu.
	stopped atomic.Bool

	mu    sync.Mutex
	queue []input       // pending inputs from head on, oldest first
	head  int           // queue[:head] ran: push reuses that room, pop allocates nothing
	msgs  int           // messages (not posts) in queue: what Buffer bounds
	wake  chan struct{} // capacity 1: a token means the queue may have changed
}

// input is one queued unit of work for a node's handler goroutine: a
// delivered message, or a posted function when fn is set.
type input struct {
	msg Message
	fn  func()
}

// push queues in unless the node has stopped. A message is refused when
// Buffer messages are already queued; a post never is.
func (nd *node) push(in input, buffer int) bool {
	nd.mu.Lock()
	ok := !nd.stopped.Load() && (in.fn != nil || nd.msgs < buffer)
	if ok {
		if nd.head > 0 && len(nd.queue) == cap(nd.queue) {
			nd.queue = append(nd.queue[:0], nd.queue[nd.head:]...)
			nd.head = 0
		}
		nd.queue = append(nd.queue, in)
		if in.fn == nil {
			nd.msgs++
		}
	}
	nd.mu.Unlock()
	if ok {
		nd.signal()
	}
	return ok
}

// pop takes the oldest input, waiting for one; false once the node has
// stopped and nothing is left to run.
func (nd *node) pop() (input, bool) {
	for {
		nd.mu.Lock()
		if nd.head < len(nd.queue) {
			in := nd.queue[nd.head]
			nd.queue[nd.head] = input{}
			nd.head++
			if nd.head == len(nd.queue) {
				nd.queue, nd.head = nd.queue[:0], 0
			}
			if in.fn == nil {
				nd.msgs--
			}
			nd.mu.Unlock()
			return in, true
		}
		stopped := nd.stopped.Load()
		nd.mu.Unlock()
		if stopped {
			return input{}, false
		}
		<-nd.wake
	}
}

// stop refuses every later push; discard also drops what is queued.
func (nd *node) stop(discard bool) {
	nd.mu.Lock()
	nd.stopped.Store(true)
	if discard {
		nd.queue, nd.head, nd.msgs = nil, 0, 0
	}
	nd.mu.Unlock()
	nd.signal()
}

func (nd *node) signal() {
	select {
	case nd.wake <- struct{}{}:
	default: // a token is already pending
	}
}

// New creates a network with the given link configuration.
func New(cfg Config) *Network {
	if cfg.Buffer <= 0 {
		cfg.Buffer = 1024
	}
	if cfg.ReorderRate > 0 && cfg.ReorderDelay <= 0 {
		cfg.ReorderDelay = time.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Network{
		cfg:       cfg,
		nodes:     make(map[string]*node),
		partition: make(map[string]int),
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Register attaches a node with a handler. The handler runs sequentially
// on its own goroutine. Registering a duplicate id returns an error.
func (n *Network) Register(id string, h Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("netsim: network closed")
	}
	if _, dup := n.nodes[id]; dup {
		return fmt.Errorf("netsim: node %q already registered", id)
	}
	n.attachLocked(id, h, nil)
	return nil
}

// attachLocked installs a fresh node generation and starts its handler
// goroutine; a non-nil init is its first input, queued before the node
// can receive anything. Caller holds the write lock.
func (n *Network) attachLocked(id string, h Handler, init func()) {
	nd := &node{handler: h, done: make(chan struct{}), wake: make(chan struct{}, 1)}
	if init != nil {
		nd.queue = []input{{fn: init}}
	}
	n.nodes[id] = nd
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer close(nd.done)
		for {
			in, ok := nd.pop()
			if !ok {
				return
			}
			if in.fn != nil {
				in.fn()
			} else {
				nd.handler(in.msg)
			}
		}
	}()
}

// Crash detaches a node: queued and in-flight messages and posts to it are
// discarded, and until Restart it neither receives nor sends. The handler
// goroutine exits once the input it is running returns. Crashing an
// unknown or already-crashed node returns an error.
func (n *Network) Crash(id string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("netsim: network closed")
	}
	nd, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("netsim: crash of unknown node %q", id)
	}
	if nd.stopped.Load() {
		return fmt.Errorf("netsim: node %q already crashed", id)
	}
	nd.stop(true)
	return nil
}

// Restart reattaches a crashed node with a (possibly new) handler. The node
// rejoins with an empty inbox; messages sent while it was down are lost, as
// after a real process restart. Restart first waits for the crashed
// generation's handler to return, so the two generations never run at
// once; it must not be called from that handler. A non-nil init runs on
// the new handler goroutine before any message or post reaches it.
func (n *Network) Restart(id string, h Handler, init func()) error {
	n.mu.RLock()
	old, err := n.crashedLocked(id)
	n.mu.RUnlock()
	if err != nil {
		return err
	}
	<-old.done
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, err := n.crashedLocked(id)
	if err != nil {
		return err
	}
	if nd != old {
		return fmt.Errorf("netsim: node %q is not crashed", id) // restarted meanwhile
	}
	n.attachLocked(id, h, init)
	return nil
}

// crashedLocked returns id's current generation if it is crashed.
func (n *Network) crashedLocked(id string) (*node, error) {
	if n.closed {
		return nil, fmt.Errorf("netsim: network closed")
	}
	nd, ok := n.nodes[id]
	if !ok {
		return nil, fmt.Errorf("netsim: restart of unknown node %q", id)
	}
	if !nd.stopped.Load() {
		return nil, fmt.Errorf("netsim: node %q is not crashed", id)
	}
	return nd, nil
}

// Post queues fn on node id's handler goroutine, behind the inputs
// queued there by then: at once, or when after has elapsed if it is
// positive. The post belongs to the node's generation at the call: it
// never runs if that generation crashes first (Crash discards one still
// queued) or the network closes, nor for an unknown node. It never
// blocks and a full inbox never refuses it, so it is safe to call under
// any lock. For a positive after it returns the timer, whose Stop
// cancels the post; otherwise nil.
func (n *Network) Post(id string, after time.Duration, fn func()) *time.Timer {
	n.mu.RLock()
	nd := n.nodes[id]
	n.mu.RUnlock()
	post := func() {
		if nd != nil {
			nd.push(input{fn: fn}, 0)
		}
	}
	if after <= 0 {
		post()
		return nil
	}
	return time.AfterFunc(after, post)
}

// Alive reports whether a node is registered and not crashed (on a closed
// network, none is).
func (n *Network) Alive(id string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	nd, ok := n.nodes[id]
	return ok && !nd.stopped.Load()
}

// Send delivers a message asynchronously, applying latency, drops,
// duplication, reordering, partitions, and crashes. Sending to an unknown
// or crashed node, from a crashed node, or across a partition silently
// drops (as a real network would).
func (n *Network) Send(msg Message) {
	n.sent.Add(1)
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		n.dropped.Add(1)
		return
	}
	if src, ok := n.nodes[msg.From]; ok && src.stopped.Load() {
		n.mu.RUnlock()
		n.dropped.Add(1)
		return
	}
	dst, ok := n.nodes[msg.To]
	sameSide := n.partition[msg.From] == n.partition[msg.To]
	n.mu.RUnlock()
	if !ok || !sameSide || dst.stopped.Load() {
		n.dropped.Add(1)
		return
	}
	if n.cfg.DropRate > 0 && n.randFloat() < n.cfg.DropRate {
		n.dropped.Add(1)
		return
	}
	copies := 1
	if n.cfg.DuplicateRate > 0 && n.randFloat() < n.cfg.DuplicateRate {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		delay := n.cfg.Latency
		if n.cfg.Jitter > 0 {
			delay += time.Duration(n.randInt63(int64(n.cfg.Jitter)))
		}
		if n.cfg.ReorderRate > 0 && n.randFloat() < n.cfg.ReorderRate {
			delay += n.cfg.ReorderDelay
		}
		if delay <= 0 {
			n.deliver(dst, msg)
			continue
		}
		time.AfterFunc(delay, func() { n.deliver(dst, msg) })
	}
}

// deliver hands a message to the destination inbox. It re-checks closed,
// crashed, and the partition map under the read lock: all three can change
// while the message sits in its delay window, and a message must not cross
// a partition (or reach a crashed node) created while it was in flight.
func (n *Network) deliver(dst *node, msg Message) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed || dst.stopped.Load() || n.partition[msg.From] != n.partition[msg.To] {
		n.dropped.Add(1)
		return
	}
	if dst.push(input{msg: msg}, n.cfg.Buffer) {
		n.delivered.Add(1)
	} else {
		// Inbox overflow models a congested replica.
		n.dropped.Add(1)
	}
}

// Partition splits nodes into groups; messages only flow within a group.
// Nodes not mentioned stay in group 0.
func (n *Network) Partition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[string]int)
	for g, ids := range groups {
		for _, id := range ids {
			n.partition[id] = g + 1
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[string]int)
}

// Stats reports message counters: sent, delivered, dropped. A duplicated
// message counts once as sent and once per delivered copy.
func (n *Network) Stats() (sent, delivered, dropped int64) {
	return n.sent.Load(), n.delivered.Load(), n.dropped.Load()
}

// ResetStats zeroes the counters (benchmarks call this between phases).
func (n *Network) ResetStats() {
	n.sent.Store(0)
	n.delivered.Store(0)
	n.dropped.Store(0)
}

// Close shuts the network down and waits for all handler goroutines to
// drain what is queued. Messages still in flight after Close are dropped.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for _, nd := range n.nodes {
		nd.stop(false) // what is queued still runs
	}
	n.mu.Unlock()
	n.wg.Wait()
}

func (n *Network) randFloat() float64 {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Float64()
}

func (n *Network) randInt63(max int64) int64 {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Int63n(max)
}
