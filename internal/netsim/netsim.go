// Package netsim provides an in-process simulated network for PReVer's
// distributed substrates (Paxos, PBFT, MPC). Nodes register handlers;
// messages are delivered asynchronously with configurable latency, jitter,
// drop probability, duplication, reordering, partitions, and node
// crash/restart, so protocol implementations are
// exercised against realistic (mis)behaviour without real sockets.
//
// Each node's handler runs on a single dedicated goroutine, so a node never
// processes two messages concurrently — the same execution model as a
// single-threaded event loop per replica.
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

// node is one attachment generation. Crash closes the inbox and marks the
// node crashed; Restart installs a fresh node struct under the same id, so
// goroutines and in-flight deliveries bound to the old generation can never
// leak messages into the new one.
type node struct {
	id      string
	inbox   chan Message
	handler Handler
	crashed atomic.Bool
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
	n.attachLocked(id, h)
	return nil
}

// attachLocked installs a fresh node generation and starts its handler
// goroutine. Caller holds the write lock.
func (n *Network) attachLocked(id string, h Handler) {
	nd := &node{id: id, inbox: make(chan Message, n.cfg.Buffer), handler: h}
	n.nodes[id] = nd
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for msg := range nd.inbox {
			if nd.crashed.Load() {
				continue // crash discards everything still queued
			}
			nd.handler(msg)
		}
	}()
}

// Crash detaches a node: queued and in-flight messages to it are discarded,
// and until Restart it neither receives nor sends. The handler goroutine
// exits. Crashing an unknown or already-crashed node returns an error.
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
	if nd.crashed.Load() {
		return fmt.Errorf("netsim: node %q already crashed", id)
	}
	nd.crashed.Store(true)
	//lint:ignore chanclose the crashed flag (set under n.mu write lock, checked by the other closer and by deliver) makes the close sites mutually exclusive
	close(nd.inbox)
	return nil
}

// Restart reattaches a crashed node with a (possibly new) handler. The node
// rejoins with an empty inbox; messages sent while it was down are lost, as
// after a real process restart.
func (n *Network) Restart(id string, h Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("netsim: network closed")
	}
	nd, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("netsim: restart of unknown node %q", id)
	}
	if !nd.crashed.Load() {
		return fmt.Errorf("netsim: node %q is not crashed", id)
	}
	n.attachLocked(id, h)
	return nil
}

// Alive reports whether a node is registered and not crashed.
func (n *Network) Alive(id string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	nd, ok := n.nodes[id]
	return ok && !nd.crashed.Load()
}

// Closed reports whether the network has been shut down.
func (n *Network) Closed() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.closed
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
	if src, ok := n.nodes[msg.From]; ok && src.crashed.Load() {
		n.mu.RUnlock()
		n.dropped.Add(1)
		return
	}
	dst, ok := n.nodes[msg.To]
	sameSide := n.partition[msg.From] == n.partition[msg.To]
	n.mu.RUnlock()
	if !ok || !sameSide || dst.crashed.Load() {
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
// Close and Crash mutate under the write lock, so the non-blocking send can
// never race a channel close.
func (n *Network) deliver(dst *node, msg Message) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed || dst.crashed.Load() || n.partition[msg.From] != n.partition[msg.To] {
		n.dropped.Add(1)
		return
	}
	select {
	//lint:ignore chanclose both closers hold n.mu for writing and set closed/crashed first; the RLock plus re-check above orders this send before any close (PR 1 discipline)
	case dst.inbox <- msg:
		n.delivered.Add(1)
	default:
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
// drain. Messages still in flight after Close are dropped.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for _, nd := range n.nodes {
		if !nd.crashed.Load() {
			//lint:ignore chanclose the crashed check under the held n.mu write lock excludes Crash's close; closed=true excludes a second Close
			close(nd.inbox)
		}
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
