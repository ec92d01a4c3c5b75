// Package paxos implements Multi-Paxos over the simulated network: a
// crash-fault-tolerant replicated log with a stable leader, phase-1 leader
// election (prepare/promise with accepted-value recovery), and phase-2
// slot replication (accept/accepted/learn).
//
// The paper prescribes Paxos as one of the two standard fault-tolerant
// baselines ("distributed solutions should be compared in terms of
// throughput and latency with standard distributed fault-tolerant
// protocols, e.g., Paxos and PBFT"); experiment E4 uses this package as
// the non-Byzantine baseline against PBFT and the sharded chain.
package paxos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"prever/internal/netsim"
)

// ErrSlotLost reports that the slot a Propose call was waiting on was
// chosen with a different value (a leader turnover re-proposed or no-op
// filled the slot). The caller's value was NOT committed in that slot and
// may be retried safely.
var ErrSlotLost = errors.New("paxos: slot lost to a competing proposal")

// Ballot orders leadership claims: higher N wins, ties broken by ID.
type Ballot struct {
	N  uint64 `json:"n"`
	ID string `json:"id"`
}

// Less reports whether b orders before o.
func (b Ballot) Less(o Ballot) bool {
	if b.N != o.N {
		return b.N < o.N
	}
	return b.ID < o.ID
}

// Message type tags on the wire.
const (
	msgPrepare  = "paxos/prepare"
	msgPromise  = "paxos/promise"
	msgAccept   = "paxos/accept"
	msgAccepted = "paxos/accepted"
	msgLearn    = "paxos/learn"
	msgSyncReq  = "paxos/syncreq"
	msgSyncRep  = "paxos/syncrep"
)

type slotValue struct {
	Slot   uint64 `json:"slot"`
	Ballot Ballot `json:"ballot"`
	Value  []byte `json:"value"`
}

type prepareMsg struct {
	Ballot Ballot `json:"ballot"`
}

// promiseMsg answers a prepare with the ballot the acceptor has promised:
// the prepare's own, or a higher one as a refusal (see onPrepare).
// Accepted lists everything the acceptor ever accepted; acceptors never
// forget, so a chosen slot appears in every promise quorum.
type promiseMsg struct {
	Ballot   Ballot      `json:"ballot"`
	Accepted []slotValue `json:"accepted,omitempty"`
}

type acceptMsg struct {
	Ballot Ballot `json:"ballot"`
	Slot   uint64 `json:"slot"`
	Value  []byte `json:"value"`
}

type acceptedMsg struct {
	Ballot Ballot `json:"ballot"`
	Slot   uint64 `json:"slot"`
}

type learnMsg struct {
	Slot  uint64 `json:"slot"`
	Value []byte `json:"value"`
}

// syncReqMsg asks peers for chosen values from slot From upward (learner
// anti-entropy; sent on restart and on demand via Sync).
type syncReqMsg struct {
	From uint64 `json:"from"`
}

type syncRepMsg struct {
	Entries []learnMsg `json:"entries,omitempty"`
}

// Applier is called with each chosen value, in slot order, exactly once
// per replica. A nil/empty value is a no-op filler chosen during leader
// failover to close a log gap; appliers should treat it as a skip.
type Applier func(slot uint64, value []byte)

// slotWaiter parks a Propose call until its slot is chosen. lost is set
// before done closes (and read only after), so the waiter learns whether
// the chosen value was actually its own.
type slotWaiter struct {
	value []byte
	done  chan struct{}
	lost  bool
}

// finish wakes the parked proposer: lost is published before done
// closes. Every path that removes a waiter from r.waiters funnels
// through here after the removal, so done has exactly one close site
// and the map is the mutual-exclusion token against a double close.
func (w *slotWaiter) finish(lost bool) {
	w.lost = lost
	close(w.done)
}

// Replica is one Paxos node: acceptor + learner, and optionally the
// leader/proposer.
type Replica struct {
	id    string
	peers []string // all replica ids including self
	net   *netsim.Network
	apply Applier

	// applyMu serializes the chosen-prefix handoff to the Applier. It is
	// acquired BEFORE mu in onLearn: two goroutines (the netsim handler
	// and a proposer inside onAccepted) can both reach onLearn, and
	// without this outer lock their contiguous-apply batches could
	// interleave out of slot order after mu is released.
	applyMu sync.Mutex

	mu sync.Mutex
	// Acceptor state.
	promised Ballot
	accepted map[uint64]slotValue
	// Leader state.
	leading   bool
	ballot    Ballot
	nextSlot  uint64
	promises  map[string]promiseMsg
	promiseCh chan struct{}
	votes     map[uint64]map[string]bool
	// Learner state.
	chosen   map[uint64][]byte
	applied  uint64
	waiters  map[uint64]*slotWaiter
	lastSeen Ballot // highest ballot observed anywhere (for election)
}

// NewReplica creates and registers a replica on the network. peers must
// include the replica's own id. apply may be nil.
func NewReplica(net *netsim.Network, id string, peers []string, apply Applier) (*Replica, error) {
	r := &Replica{
		id:       id,
		peers:    append([]string(nil), peers...),
		net:      net,
		apply:    apply,
		accepted: make(map[uint64]slotValue),
		votes:    make(map[uint64]map[string]bool),
		chosen:   make(map[uint64][]byte),
		waiters:  make(map[uint64]*slotWaiter),
	}
	found := false
	for _, p := range peers {
		if p == id {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("paxos: peers must include self (%s)", id)
	}
	if err := net.Register(id, r.handle); err != nil {
		return nil, err
	}
	return r, nil
}

// ID returns the replica id.
func (r *Replica) ID() string { return r.id }

// quorum is the majority size.
func (r *Replica) quorum() int { return len(r.peers)/2 + 1 }

// BecomeLeader runs phase 1: it picks a ballot above anything seen,
// collects a majority of promises, re-proposes any previously accepted
// values, and switches to steady-state leadership. A refusal naming a
// higher ballot restarts phase 1 above it. Blocks up to timeout.
func (r *Replica) BecomeLeader(timeout time.Duration) error {
	r.mu.Lock()
	prep := r.campaignLocked()
	r.mu.Unlock()
	r.broadcast(msgPrepare, prep)

	deadlineTmr := time.NewTimer(timeout)
	defer deadlineTmr.Stop()
	deadline := deadlineTmr.C
	for {
		r.mu.Lock()
		if len(r.promises) >= r.quorum() {
			// Adopt the highest-ballot accepted value per slot and
			// re-propose under the new ballot.
			adopt := map[uint64]slotValue{}
			maxSlot := uint64(0)
			for _, p := range r.promises {
				for _, sv := range p.Accepted {
					cur, ok := adopt[sv.Slot]
					if !ok || cur.Ballot.Less(sv.Ballot) {
						adopt[sv.Slot] = sv
					}
					if sv.Slot+1 > maxSlot {
						maxSlot = sv.Slot + 1
					}
				}
			}
			if maxSlot > r.nextSlot {
				r.nextSlot = maxSlot
			}
			r.leading = true
			// Every slot in [applied, nextSlot) not known chosen here gets
			// its adopted value, or a no-op if no promise carried one: such
			// a slot was never accepted by anyone in the promise quorum, so
			// no quorum chose it (a choosing quorum would have left a trace
			// in every intersecting promise quorum). The fill keeps
			// contiguous application from stalling on a gap left by a
			// crashed leader; the re-proposals are how a lagging leader
			// catches up.
			var reproposals []acceptMsg
			for slot := r.applied; slot < r.nextSlot; slot++ {
				if _, done := r.chosen[slot]; !done {
					reproposals = append(reproposals, acceptMsg{Ballot: r.ballot, Slot: slot, Value: adopt[slot].Value})
				}
			}
			// Re-announce values this replica knows are chosen above its
			// applied floor: peers that missed the original learn converge
			// without waiting for an explicit Sync.
			var relearn []learnMsg
			for slot, v := range r.chosen {
				if slot >= r.applied {
					relearn = append(relearn, learnMsg{Slot: slot, Value: v})
				}
			}
			r.mu.Unlock()
			for _, a := range reproposals {
				r.sendAccept(a)
			}
			for _, l := range relearn {
				r.broadcast(msgLearn, l)
			}
			return nil
		}
		if r.ballot.Less(r.lastSeen) {
			// A peer has promised a higher ballot, so this one can never
			// gather a quorum: campaign again above it.
			prep := r.campaignLocked()
			r.mu.Unlock()
			r.broadcast(msgPrepare, prep)
			continue
		}
		ch := r.promiseCh
		r.mu.Unlock()
		select {
		case <-ch:
		case <-deadline:
			return errors.New("paxos: leader election timed out")
		}
	}
}

// campaignLocked opens phase 1 at a ballot above every ballot seen and
// counts this replica's own promise. The caller holds mu and broadcasts
// the returned prepare after releasing it.
func (r *Replica) campaignLocked() prepareMsg {
	r.ballot = Ballot{N: r.lastSeen.N + 1, ID: r.id}
	r.lastSeen = r.ballot
	r.promises = map[string]promiseMsg{}
	r.promiseCh = make(chan struct{}, len(r.peers))
	r.promised = r.ballot // above lastSeen, so above any ballot promised
	r.promises[r.id] = promiseMsg{Ballot: r.ballot, Accepted: r.acceptedListLocked()}
	return prepareMsg{Ballot: r.ballot}
}

// IsLeader reports whether this replica currently believes it leads.
func (r *Replica) IsLeader() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leading
}

// PendingProposal is an in-flight proposal: its slot is already assigned
// and the accept round started; Wait parks until the outcome is known.
// The eager slot assignment is what lets a batcher pipeline proposals —
// starting proposals in order fixes their log order before any of them
// commits.
type PendingProposal struct {
	r    *Replica
	slot uint64
	w    *slotWaiter
}

// Wait blocks until the slot is chosen and applied locally or the timeout
// elapses. ErrSlotLost means a competing proposal took the slot; the
// value was not committed there and may be retried.
func (p *PendingProposal) Wait(timeout time.Duration) (uint64, error) {
	tmr := time.NewTimer(timeout)
	defer tmr.Stop()
	select {
	case <-p.w.done:
		if p.w.lost {
			return 0, ErrSlotLost
		}
		return p.slot, nil
	case <-tmr.C:
		p.r.mu.Lock()
		delete(p.r.waiters, p.slot)
		p.r.mu.Unlock()
		return 0, fmt.Errorf("paxos: proposal for slot %d timed out", p.slot)
	}
}

// ProposeAsync assigns the next log slot to value and starts its accept
// round without waiting for the outcome. Only valid on the leader.
func (r *Replica) ProposeAsync(value []byte) (*PendingProposal, error) {
	r.mu.Lock()
	if !r.leading {
		r.mu.Unlock()
		return nil, errors.New("paxos: not the leader")
	}
	slot := r.nextSlot
	r.nextSlot++
	w := &slotWaiter{value: value, done: make(chan struct{})}
	r.waiters[slot] = w
	a := acceptMsg{Ballot: r.ballot, Slot: slot, Value: value}
	r.mu.Unlock()

	r.sendAccept(a)
	return &PendingProposal{r: r, slot: slot, w: w}, nil
}

// Propose replicates value into the next log slot. Only valid on the
// leader. Blocks until the slot is chosen and applied locally, or the
// timeout elapses. If the slot was chosen with a DIFFERENT value (a
// leader turnover re-proposed into it), Propose returns ErrSlotLost: the
// caller's value was not committed and may be retried.
func (r *Replica) Propose(value []byte, timeout time.Duration) (uint64, error) {
	p, err := r.ProposeAsync(value)
	if err != nil {
		return 0, err
	}
	return p.Wait(timeout)
}

// Crash detaches the replica from the network, simulating a process
// crash. Acceptor and learner state survives (real Paxos keeps promised/
// accepted on stable storage); leadership does not.
func (r *Replica) Crash() error {
	if err := r.net.Crash(r.id); err != nil {
		return err
	}
	r.mu.Lock()
	r.leading = false
	r.mu.Unlock()
	return nil
}

// Restart reattaches a crashed replica and pulls the chosen log it missed
// from its peers (learn-sync).
func (r *Replica) Restart() error {
	if err := r.net.Restart(r.id, r.handle, nil); err != nil {
		return err
	}
	r.Sync()
	return nil
}

// Sync asks all peers for chosen values at or above this replica's
// contiguous-applied floor (anti-entropy pull). Useful after a restart or
// a healed partition; replies flow through the normal learn path.
func (r *Replica) Sync() {
	r.mu.Lock()
	from := r.applied
	r.mu.Unlock()
	r.broadcast(msgSyncReq, syncReqMsg{From: from})
}

// sendAccept broadcasts an accept and processes the leader's own vote.
func (r *Replica) sendAccept(a acceptMsg) {
	r.broadcast(msgAccept, a)
	// Self-accept.
	r.onAccept(r.id, a)
}

func (r *Replica) acceptedListLocked() []slotValue {
	out := make([]slotValue, 0, len(r.accepted))
	for _, sv := range r.accepted {
		out = append(out, sv)
	}
	return out
}

func (r *Replica) broadcast(msgType string, v any) {
	payload := mustJSON(v)
	for _, p := range r.peers {
		if p == r.id {
			continue
		}
		r.net.Send(netsim.Message{From: r.id, To: p, Type: msgType, Payload: payload})
	}
}

func (r *Replica) send(to, msgType string, v any) {
	r.net.Send(netsim.Message{From: r.id, To: to, Type: msgType, Payload: mustJSON(v)})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("paxos: marshal: %v", err))
	}
	return b
}

// handle dispatches incoming messages; it runs on the node's single
// netsim goroutine.
func (r *Replica) handle(m netsim.Message) {
	switch m.Type {
	case msgPrepare:
		var p prepareMsg
		if json.Unmarshal(m.Payload, &p) != nil {
			return
		}
		r.onPrepare(m.From, p)
	case msgPromise:
		var p promiseMsg
		if json.Unmarshal(m.Payload, &p) != nil {
			return
		}
		r.onPromise(m.From, p)
	case msgAccept:
		var a acceptMsg
		if json.Unmarshal(m.Payload, &a) != nil {
			return
		}
		r.onAccept(m.From, a)
	case msgAccepted:
		var a acceptedMsg
		if json.Unmarshal(m.Payload, &a) != nil {
			return
		}
		r.onAccepted(m.From, a)
	case msgLearn:
		var l learnMsg
		if json.Unmarshal(m.Payload, &l) != nil {
			return
		}
		r.onLearn(l)
	case msgSyncReq:
		var s syncReqMsg
		if json.Unmarshal(m.Payload, &s) != nil {
			return
		}
		r.onSyncReq(m.From, s)
	case msgSyncRep:
		var s syncRepMsg
		if json.Unmarshal(m.Payload, &s) != nil {
			return
		}
		for _, l := range s.Entries {
			r.onLearn(l)
		}
	}
}

// onSyncReq serves chosen values at or above the requester's floor.
func (r *Replica) onSyncReq(from string, s syncReqMsg) {
	r.mu.Lock()
	rep := syncRepMsg{}
	for slot, v := range r.chosen {
		if slot >= s.From {
			rep.Entries = append(rep.Entries, learnMsg{Slot: slot, Value: v})
		}
	}
	r.mu.Unlock()
	if len(rep.Entries) > 0 {
		r.send(from, msgSyncRep, rep)
	}
}

func (r *Replica) onPrepare(from string, p prepareMsg) {
	r.mu.Lock()
	if r.lastSeen.Less(p.Ballot) {
		r.lastSeen = p.Ballot
	}
	if p.Ballot == r.promised {
		r.mu.Unlock()
		return // a duplicate prepare: its promise has been sent
	}
	if r.promised.Less(p.Ballot) {
		r.promised = p.Ballot
		// A higher ballot demotes any current leadership.
		if r.leading && r.ballot.Less(p.Ballot) {
			r.leading = false
		}
	}
	// A prepare below the promised ballot is refused by promising the
	// promised one instead: the candidate learns what to outbid rather
	// than waiting out its timeout.
	reply := promiseMsg{Ballot: r.promised, Accepted: r.acceptedListLocked()}
	r.mu.Unlock()
	r.send(from, msgPromise, reply)
}

func (r *Replica) onPromise(from string, p promiseMsg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.promises == nil {
		return
	}
	switch {
	case p.Ballot == r.ballot:
		r.promises[from] = p
	case r.ballot.Less(p.Ballot):
		// A refusal: wake the campaign so it re-ballots above p.Ballot.
		if r.lastSeen.Less(p.Ballot) {
			r.lastSeen = p.Ballot
		}
	default:
		return // a reply to an earlier campaign of this replica
	}
	select {
	case r.promiseCh <- struct{}{}:
	default:
	}
}

func (r *Replica) onAccept(from string, a acceptMsg) {
	r.mu.Lock()
	if r.lastSeen.Less(a.Ballot) {
		r.lastSeen = a.Ballot
	}
	if a.Ballot.Less(r.promised) {
		r.mu.Unlock()
		return // stale ballot: reject silently
	}
	r.promised = a.Ballot
	// A higher-ballot accept means another leader won an election this
	// replica missed (e.g. while partitioned): stop claiming leadership.
	if r.leading && r.ballot.Less(a.Ballot) {
		r.leading = false
	}
	r.accepted[a.Slot] = slotValue{Slot: a.Slot, Ballot: a.Ballot, Value: a.Value}
	r.mu.Unlock()
	if from == r.id {
		// Leader's self-vote.
		r.onAccepted(r.id, acceptedMsg{Ballot: a.Ballot, Slot: a.Slot})
		return
	}
	r.send(from, msgAccepted, acceptedMsg{Ballot: a.Ballot, Slot: a.Slot})
}

func (r *Replica) onAccepted(from string, a acceptedMsg) {
	r.mu.Lock()
	if !r.leading || a.Ballot != r.ballot {
		r.mu.Unlock()
		return
	}
	if _, done := r.chosen[a.Slot]; done {
		r.mu.Unlock()
		return
	}
	if r.votes[a.Slot] == nil {
		r.votes[a.Slot] = map[string]bool{}
	}
	r.votes[a.Slot][from] = true
	if len(r.votes[a.Slot]) < r.quorum() {
		r.mu.Unlock()
		return
	}
	// Chosen: learn locally and tell everyone.
	sv, ok := r.accepted[a.Slot]
	if !ok {
		r.mu.Unlock()
		return
	}
	value := sv.Value
	r.mu.Unlock()
	r.broadcast(msgLearn, learnMsg{Slot: a.Slot, Value: value})
	r.onLearn(learnMsg{Slot: a.Slot, Value: value})
}

// onLearn records a chosen value and applies the contiguous prefix.
// applyMu is taken before mu and held across the Applier calls: the batch
// extraction and its application form one critical section, so two racing
// learners can never hand batches to the Applier out of slot order.
func (r *Replica) onLearn(l learnMsg) {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.mu.Lock()
	if _, done := r.chosen[l.Slot]; done {
		r.mu.Unlock()
		return
	}
	r.chosen[l.Slot] = l.Value
	// Apply contiguous prefix.
	type applyItem struct {
		slot  uint64
		value []byte
	}
	var toApply []applyItem
	for {
		v, ok := r.chosen[r.applied]
		if !ok {
			break
		}
		toApply = append(toApply, applyItem{r.applied, v})
		r.applied++
	}
	var toWake *slotWaiter
	var toWakeLost bool
	if w, ok := r.waiters[l.Slot]; ok {
		toWake, toWakeLost = w, !bytes.Equal(w.value, l.Value)
		delete(r.waiters, l.Slot)
	}
	apply := r.apply
	r.mu.Unlock()
	if apply != nil {
		for _, it := range toApply {
			apply(it.slot, it.value)
		}
	}
	if toWake != nil {
		toWake.finish(toWakeLost)
	}
}
