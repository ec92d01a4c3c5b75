// Package pbft implements Practical Byzantine Fault Tolerance
// (Castro & Liskov, OSDI '99) over the simulated network: the three-phase
// pre-prepare / prepare / commit protocol, checkpointing, and a
// view-change protocol that recovers prepared-but-unexecuted requests
// under a new primary. An instance orders one request, or none (a view
// change's null fill); batching happens upstream, in internal/mempool,
// whose framed batch rides as one request.
//
// Messages are authenticated as the paper does it: each broadcast is
// encoded once into an envelope carrying one HMAC per receiver over the
// message type and header (for a pre-prepare, the digest, not the
// request), and every receiver gets the same bytes. A vote counts for the
// replica whose key authenticated it, never for a name in its body. A
// backup hashes a pre-prepare's request once, against the authenticated
// digest, and that digest is what the instance carries to execution.
//
// PReVer uses PBFT twice: as the standard BFT baseline the paper prescribes
// for evaluation (experiment E4), and as the ordering service underneath
// the permissioned blockchain (internal/chain) that provides integrity for
// federated databases (Research Challenge 4).
package pbft

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"prever/internal/netsim"
	"prever/internal/wal"
)

// Message type tags.
const (
	msgRequest    = "pbft/request"
	msgPrePrepare = "pbft/preprepare"
	msgPrepare    = "pbft/prepare"
	msgCommit     = "pbft/commit"
	msgCheckpoint = "pbft/checkpoint"
	msgViewChange = "pbft/viewchange"
	msgNewView    = "pbft/newview"
	msgStateReq   = "pbft/statereq"
	msgStateRep   = "pbft/staterep"
)

// Request is a client operation.
type Request struct {
	Client string `json:"client"`
	Seq    uint64 `json:"seq"` // client-local sequence for dedup
	Op     []byte `json:"op"`
}

// Digest identifies an instance's request (digestOf).
type Digest [32]byte

// prePrepareMsg is one instance: the request ordered at Seq, or none for
// a view change's null fill. It is also how a view change carries a
// prepared certificate (View is the view it prepared in) and how a state
// reply carries an executed instance (View 0).
type prePrepareMsg struct {
	View   uint64   `json:"view"`
	Seq    uint64   `json:"seq"`
	Digest Digest   `json:"digest"`
	Req    *Request `json:"req,omitempty"`
}

// The votes name no replica: each counts for its authenticated sender.
type prepareMsg struct {
	View   uint64 `json:"view"`
	Seq    uint64 `json:"seq"`
	Digest Digest `json:"digest"`
}

type commitMsg struct {
	View   uint64 `json:"view"`
	Seq    uint64 `json:"seq"`
	Digest Digest `json:"digest"`
}

type checkpointMsg struct {
	Seq   uint64 `json:"seq"`
	State Digest `json:"state"`
}

type viewChangeMsg struct {
	NewView  uint64          `json:"newView"`
	Stable   uint64          `json:"stable"`
	Prepared []prePrepareMsg `json:"prepared,omitempty"`
	// Exec is the sender's executed floor. A recovered replica holds no
	// prepared certificates below its snapshot floor (they were compacted
	// into the snapshot), so the new primary cannot take an absent
	// certificate below any voter's Exec as proof the sequence never
	// committed — those sequences are executed history, never null-fill
	// targets.
	Exec uint64 `json:"exec,omitempty"`
}

type newViewMsg struct {
	View        uint64          `json:"view"`
	PrePrepares []prePrepareMsg `json:"preprepares,omitempty"`
	NextSeq     uint64          `json:"nextSeq"`
}

// stateReqMsg asks peers for the executed instances from Have upward —
// the checkpoint/state-transfer pull a restarted replica uses to catch up.
type stateReqMsg struct {
	Have uint64 `json:"have"`
	View uint64 `json:"view,omitempty"` // requester's view, so peers ahead reply even with no entries
}

// stateImage is a replica's state at ExecSeq: its client-dedup keys and
// its application's blob. A durable replica's snapshot holds one
// (pbSnapshot embeds it), and state transfer offers it to a replica too
// far behind to be caught up entry by entry — a recovered replica holds
// executed instances only above its own snapshot. Snapshots fall on
// multiples of SnapshotEvery and both parts are deterministic (sorted
// keys, canonical blob), so honest replicas' images at one sequence are
// the same bytes, and f+1 senders agreeing on one prove that at least
// one honest replica holds exactly that state.
type stateImage struct {
	ExecSeq  uint64   `json:"execSeq"`
	Executed []string `json:"executed,omitempty"` // sorted client-dedup keys
	App      []byte   `json:"app,omitempty"`
}

type stateRepMsg struct {
	Entries []prePrepareMsg `json:"entries,omitempty"`
	Snap    *stateImage     `json:"snap,omitempty"`
	// View is the sender's current view: state transfer doubles as view
	// synchronization. A replica that was down when a new-view message
	// was broadcast has no other way to learn the cluster moved on — it
	// would reject every live vote on the view check forever.
	View uint64 `json:"view,omitempty"`
}

// Applier is called once per executed request, in sequence order: never
// for a view change's null fill, nor for a request executed before (a
// client's retry that a primary ordered again).
type Applier func(seq uint64, req Request)

// Options tunes a replica.
type Options struct {
	CheckpointEvery uint64        // checkpoint period in sequences (default 128)
	ViewTimeout     time.Duration // request execution timeout before view change (default 2s)
}

func (o *Options) withDefaults() {
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 128
	}
	if o.ViewTimeout == 0 {
		o.ViewTimeout = 2 * time.Second
	}
}

// instState tracks one (view, seq) consensus instance.
type instState struct {
	digest      Digest
	req         *Request
	prePrepared bool
	prepares    map[string]bool
	commits     map[string]bool
	committed   bool
	executed    bool
	// decided is set when 2f+1 commit votes were counted live: the request
	// is irrevocably committed at this sequence cluster-wide. Unlike
	// committed (= locally prepared, a view-scoped vote), decided is
	// final — it survives view changes and is safe to hand to peers in
	// state-transfer replies. Never set during WAL recovery (a recovered
	// prepared certificate proves a vote, not a decision).
	decided bool
	// cert is the prepared certificate, recorded when this replica
	// prepares the instance and kept until the sequence is checkpointed
	// away; nil before. It is deliberately separate from the per-view
	// vote state above: votes reset on every view entry, but the
	// certificate must keep appearing in this replica's view-change
	// messages until a checkpoint covers the sequence — a cert reported
	// only in the first view change after preparing would vanish if that
	// view's re-proposal stalled, and the next primary would null-fill a
	// sequence some replica already executed and acked.
	cert *prePrepareMsg
}

// setCertLocked records (or refreshes, in a later view) the prepared
// certificate for instance seq. A decided instance calls it on every
// later commit vote, which leaves the certificate as it is.
func (inst *instState) setCertLocked(seq, view uint64) {
	if c := inst.cert; c == nil || c.View != view || c.Digest != inst.digest {
		inst.cert = &prePrepareMsg{View: view, Seq: seq, Digest: inst.digest, Req: inst.req}
	}
}

// resetVotesLocked clears the per-view vote state on view entry while
// leaving the prepared certificate (and decided/executed finality)
// untouched.
func (inst *instState) resetVotesLocked() {
	inst.prepares = map[string]bool{}
	inst.commits = map[string]bool{}
	inst.committed = false
	inst.prePrepared = false
}

// Replica is one PBFT node.
type Replica struct {
	id    string
	index int
	ids   []string // all replica ids in fixed order
	f     int
	net   *netsim.Network
	apply Applier
	opts  Options
	// Per-direction MAC keys, by peer id: sendKeys[p] signs what this
	// replica sends p, recvKeys[p] checks what p sends it. Fixed after
	// construction.
	sendKeys map[string]*macKey
	recvKeys map[string]*macKey

	mu         sync.Mutex
	view       uint64
	nextSeq    uint64 // primary: next sequence to assign
	execSeq    uint64 // next sequence to execute
	stable     uint64 // last stable checkpoint
	insts      map[uint64]*instState
	executedR  map[reqKey]bool // dedup of executed requests
	waiters    map[Digest][]chan struct{}
	ckpts      map[uint64]map[string]bool
	vcs        map[uint64]map[string]viewChangeMsg
	nvHeld     map[string]newViewMsg // per sender: its latest new view that arrived before f+1 votes for it
	inVC       bool
	vcTarget   uint64 // highest view this replica has voted a view change for
	vcSolo     int    // timeouts spent in a view change without f+1 support
	vcTimers   map[Digest]*vcTimer
	execLog    map[uint64]prePrepareMsg            // executed instances, served to restarted peers
	stateVotes map[uint64]map[string]prePrepareMsg // state-transfer replies per seq, per sender
	imgVotes   map[string]*imgVote                 // state-image offers per image digest
	viewClaims map[string]uint64                   // views peers advertised in state replies (view sync)

	// Durability (nil log == in-memory mode; see durable.go). applying
	// counts executions whose Applier call is in flight outside mu —
	// snapshots are taken only when it is zero, so the application blob
	// always corresponds exactly to execSeq. walFailed is sticky: a
	// failed journal write silences this replica's votes (an
	// un-journaled prepare/commit is unsafe to count) but lets
	// execution continue in memory.
	log       *wal.Log
	logApp    wal.Snapshotter
	snapEvery uint64
	applying  int
	walFailed bool
}

// imgVote accumulates senders backing one state image (keyed by the
// image's canonical digest).
type imgVote struct {
	img     stateImage
	senders map[string]bool
}

// vcTimer guards one watched request. The request rides along so the
// timeout callback (and view entry) can check execution state before
// deciding anything.
type vcTimer struct {
	tmr *time.Timer
	req Request
}

// NewReplica creates and registers a PBFT replica. ids is the full ordered
// replica list (len = 3f+1); id must appear in it.
func NewReplica(net *netsim.Network, id string, ids []string, f int, apply Applier, opts Options) (*Replica, error) {
	r, err := newReplica(net, id, ids, f, apply, opts)
	if err != nil {
		return nil, err
	}
	if err := net.Register(id, r.handle); err != nil {
		return nil, err
	}
	return r, nil
}

// newReplica validates the membership and builds an unregistered replica.
func newReplica(net *netsim.Network, id string, ids []string, f int, apply Applier, opts Options) (*Replica, error) {
	opts.withDefaults()
	if len(ids) < 3*f+1 {
		return nil, fmt.Errorf("pbft: need at least 3f+1=%d replicas, have %d", 3*f+1, len(ids))
	}
	index := -1
	for i, x := range ids {
		if x == id {
			index = i
		}
	}
	if index < 0 {
		return nil, fmt.Errorf("pbft: id %q not in replica list", id)
	}
	r := &Replica{
		id:         id,
		index:      index,
		ids:        append([]string(nil), ids...),
		f:          f,
		net:        net,
		apply:      apply,
		opts:       opts,
		insts:      make(map[uint64]*instState),
		executedR:  make(map[reqKey]bool),
		waiters:    make(map[Digest][]chan struct{}),
		ckpts:      make(map[uint64]map[string]bool),
		vcs:        make(map[uint64]map[string]viewChangeMsg),
		nvHeld:     make(map[string]newViewMsg),
		vcTimers:   make(map[Digest]*vcTimer),
		execLog:    make(map[uint64]prePrepareMsg),
		stateVotes: make(map[uint64]map[string]prePrepareMsg),
		sendKeys:   make(map[string]*macKey, len(ids)),
		recvKeys:   make(map[string]*macKey, len(ids)),
	}
	// Own id included: a replica that adopts a view it leads forwards its
	// revived requests to that view's primary, itself.
	for _, peer := range ids {
		r.sendKeys[peer] = linkKey(clusterKey, id, peer)
		r.recvKeys[peer] = linkKey(clusterKey, peer, id)
	}
	return r, nil
}

// ID returns the replica id.
func (r *Replica) ID() string { return r.id }

// View returns the current view number.
func (r *Replica) View() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view
}

// primaryOf is view's primary. It reads only ids, fixed after
// construction, so it needs no lock.
func (r *Replica) primaryOf(view uint64) string {
	return r.ids[int(view)%len(r.ids)]
}

// IsPrimary reports whether this replica is the current primary.
func (r *Replica) IsPrimary() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.primaryOf(r.view) == r.id
}

// Executed returns how many sequences this replica has executed.
//
//lint:ignore unreached the chaos suite, a test of another package, waits on it for convergence
func (r *Replica) Executed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.execSeq
}

// quorum sizes. An instance is prepared on its pre-prepare, which
// stands for the primary's prepare, plus 2f prepares from distinct
// backups (a backup's own among them): 2f+1 replicas (Castro–Liskov
// §4.2). The primary sends no prepare, and none from it is counted.
func (r *Replica) prepareQuorum() int { return 2 * r.f }
func (r *Replica) commitQuorum() int  { return 2*r.f + 1 }

// --- authentication ---

// clusterKey is the MAC master key; the simulated cluster distributes none.
var clusterKey = []byte("prever/pbft/default-cluster-key")

// linkKey derives the key that authenticates messages from one replica
// to another, modelling PBFT's session keys: k(from, to) and k(to, from)
// differ, so a MAC a replica sent can never be handed back to it as a
// message from its receiver. Each replica derives its keys once, at
// construction.
func linkKey(master []byte, from, to string) *macKey {
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte(from))
	mac.Write([]byte{0})
	mac.Write([]byte(to))
	return newMACKey(mac.Sum(nil))
}

// send authenticates v to one replica, to, always a member of ids: only
// its slot is filled.
func (r *Replica) send(to, msgType string, v any) {
	payload := envelope(len(r.ids), v)
	sign(r.sendKeys[to], len(r.ids), slices.Index(r.ids, to), msgType, payload)
	r.net.Send(netsim.Message{From: r.id, To: to, Type: msgType, Payload: payload})
}

// broadcast encodes v once, fills every other replica's slot, and hands
// each of them the same payload — only once every slot is filled: from
// the first Send on, a receiver may be reading it.
func (r *Replica) broadcast(msgType string, v any) {
	payload := envelope(len(r.ids), v)
	for i, id := range r.ids {
		if id != r.id {
			sign(r.sendKeys[id], len(r.ids), i, msgType, payload)
		}
	}
	for _, id := range r.ids {
		if id != r.id {
			r.net.Send(netsim.Message{From: r.id, To: id, Type: msgType, Payload: payload})
		}
	}
}

// --- client path ---

// Submit proposes an operation and blocks until it executes locally or the
// timeout elapses. On the primary it is proposed at once; on a
// backup it is forwarded to the primary and guarded by a view-change
// timer, so a dead primary is eventually replaced and the caller can
// retry.
func (r *Replica) Submit(client string, clientSeq uint64, op []byte, timeout time.Duration) error {
	done := r.SubmitAsync(client, clientSeq, op)
	tmr := time.NewTimer(timeout)
	defer tmr.Stop()
	select {
	case <-done:
		return nil
	case <-tmr.C:
		return errors.New("pbft: request timed out")
	}
}

// SubmitAsync proposes an operation without waiting: the returned channel
// closes when the request executes locally. A duplicate of an already
// executed request gets a closed channel immediately. The eager ingestion
// is what lets a batching client pipeline requests — on a stable primary,
// requests submitted in order are sequenced (pre-prepared) in order
// before any of them commits.
func (r *Replica) SubmitAsync(client string, clientSeq uint64, op []byte) <-chan struct{} {
	req := Request{Client: client, Seq: clientSeq, Op: op}
	d := digestOf(&req)
	done := make(chan struct{})

	r.mu.Lock()
	if r.executedR[req.key()] {
		r.mu.Unlock()
		close(done) // duplicate of an executed request
		return done
	}
	r.waiters[d] = append(r.waiters[d], done)
	// Arm the watchdog on the primary too: a primary that proposes into a
	// view whose quorum has collapsed (e.g. enough backups are wedged in a
	// view change nobody else joins) would otherwise stall the request
	// forever with no timer anywhere to force a view change.
	r.armViewChangeTimerLocked(d, req)
	isPrimary := r.primaryOf(r.view) == r.id && !r.inVC
	if isPrimary {
		if !r.inFlightLocked(req) {
			r.proposeLocked(d, req)
		}
		r.mu.Unlock()
	} else {
		// Broadcast the request so every replica arms a view-change
		// timer; the primary picks it up for ordering, and if the primary
		// is dead, f+1 timers expire and a view change goes through.
		r.mu.Unlock()
		r.broadcast(msgRequest, req)
	}
	return done
}

// reqKey identifies a request for dedup: its client and that client's
// sequence number. A snapshot spells it "client/seq" (String).
type reqKey struct {
	client string
	seq    uint64
}

func (req Request) key() reqKey { return reqKey{req.Client, req.Seq} }

// armViewChangeTimerLocked starts a timer that triggers a view change if
// the request does not execute in time. d is digestOf(&req),
// which every caller already holds.
func (r *Replica) armViewChangeTimerLocked(d Digest, req Request) {
	if _, ok := r.vcTimers[d]; ok {
		return
	}
	vt := &vcTimer{req: req}
	vt.tmr = time.AfterFunc(r.opts.ViewTimeout, func() { r.onViewChangeTimeout(d, req) })
	r.vcTimers[d] = vt
}

// onViewChangeTimeout fires when a watched request's timer expires. A
// timer can lose the race with execution — maybeExecuteLocked's Stop
// lands after the timer has fired but before this callback takes the
// lock — so the executed set is re-checked here; without it a fully
// executed workload could still trigger spurious view changes under load.
//
// For a request that truly stalled, the timer is the liveness engine and
// re-arms itself until the request executes: vote for a view change; if
// one is already stalled with f+1 replicas behind it (so at least one
// honest peer agrees), escalate past its — presumably dead — candidate
// primary to the next view; if this replica's vote is a singleton, the
// vote was probably lost in a partition, so retransmit it instead of
// climbing views nobody else wants.
func (r *Replica) onViewChangeTimeout(d Digest, req Request) {
	r.mu.Lock()
	delete(r.vcTimers, d)
	if r.executedR[req.key()] {
		r.mu.Unlock()
		return
	}
	// Re-arm only while this node is actually part of a live network —
	// without the guard an abandoned request would keep a timer ticking
	// forever after a crash or shutdown.
	if r.net.Alive(r.id) && !r.net.Closed() {
		r.armViewChangeTimerLocked(d, req)
	}
	if !r.inVC {
		if r.primaryOf(r.view) == r.id && !r.inFlightLocked(req) {
			// This replica became primary after the request was armed
			// and never proposed it: propose it rather than view-changing
			// away from itself. If the request IS in flight, the view's
			// quorum has collapsed — re-proposing into the same dead view
			// cannot help, so fall through to the view change.
			r.proposeLocked(d, req)
			r.mu.Unlock()
			return
		}
		next := r.view + 1
		if r.vcTarget+1 > next {
			next = r.vcTarget + 1
		}
		r.mu.Unlock()
		r.StartViewChange(next)
		return
	}
	target := r.vcTarget
	if len(r.vcs[target]) >= r.f+1 {
		r.mu.Unlock()
		r.StartViewChange(target + 1)
		return
	}
	// This replica's vote is a minority nobody joined. Retransmit it once
	// (it may have been lost in a partition); if that still gathers no
	// support, the rest of the cluster is almost certainly healthy in the
	// installed view and this replica is wedged deaf — voting for a view
	// change nobody wants while dropping every current-view message. Give
	// the vote up: rejoin the installed view and state-sync whatever was
	// committed while deaf (a commit this replica already voted for may
	// have completed without it). The vote itself stays counted at peers,
	// and the watchdog re-armed above still forces a fresh view change if
	// the request stays stalled.
	if r.vcSolo >= 1 {
		r.vcSolo = 0
		r.inVC = false
		r.mu.Unlock()
		r.Sync()
		return
	}
	r.vcSolo++
	vc := viewChangeMsg{NewView: target, Stable: r.stable, Prepared: r.preparedSetLocked(), Exec: r.execSeq}
	r.mu.Unlock()
	r.broadcast(msgViewChange, vc)
}

// inFlightLocked reports whether req is the request of an un-executed
// instance — i.e. it has been proposed and is waiting on votes, so
// proposing it again would be futile.
func (r *Replica) inFlightLocked(req Request) bool {
	k := req.key()
	for _, inst := range r.insts {
		if !inst.executed && inst.prePrepared && inst.req != nil && inst.req.key() == k {
			return true
		}
	}
	return false
}

// proposeLocked assigns req the next sequence and runs pre-prepare; d is
// digestOf(&req). The primary proposes each request the moment it admits
// it: grouping operations into one request is the mempool's job,
// upstream of the client.
func (r *Replica) proposeLocked(d Digest, req Request) {
	seq := r.nextSeq
	r.nextSeq++
	pp := prePrepareMsg{View: r.view, Seq: seq, Digest: d, Req: &req}
	inst := r.instLocked(seq)
	inst.digest = d
	inst.req = pp.Req
	inst.prePrepared = true
	// fsync point: the sequence assignment must be durable before the
	// pre-prepare leaves the primary. On failure the request is dropped —
	// clients retry and the watchdogs recover liveness.
	if !r.journalLocked(pbRecord{K: pbPP, View: r.view, Seq: seq, Digest: d, Req: pp.Req}) {
		return
	}
	// The pre-prepare is the primary's prepare: it sends no other.
	r.mu.Unlock()
	r.broadcast(msgPrePrepare, pp)
	r.mu.Lock()
	r.maybeCommitLocked(seq) // prepared at once only when f = 0
}

func (r *Replica) instLocked(seq uint64) *instState {
	inst, ok := r.insts[seq]
	if !ok {
		inst = &instState{prepares: map[string]bool{}, commits: map[string]bool{}}
		r.insts[seq] = inst
	}
	return inst
}

// --- message handling ---

func (r *Replica) handle(m netsim.Message) {
	body, ok := open(r.recvKeys[m.From], len(r.ids), r.index, m.Type, m.Payload)
	if !ok {
		return // bad MAC: discard (Byzantine sender or corruption)
	}
	switch m.Type {
	case msgRequest:
		if req, ok := decodeRequest(body); ok {
			r.onRequest(req)
		}
	case msgPrePrepare:
		if pp, ok := decodePrePrepare(body); ok {
			r.onPrePrepare(m.From, pp)
		}
	case msgPrepare:
		if p, ok := decodeVote(body); ok {
			r.onPrepare(m.From, p)
		}
	case msgCommit:
		if c, ok := decodeVote(body); ok {
			r.onCommit(m.From, commitMsg(c))
		}
	case msgCheckpoint:
		if c, ok := decodeCheckpoint(body); ok {
			r.onCheckpoint(m.From, c)
		}
	case msgViewChange:
		var vc viewChangeMsg
		if json.Unmarshal(body, &vc) != nil {
			return
		}
		r.onViewChange(m.From, vc)
	case msgNewView:
		var nv newViewMsg
		if json.Unmarshal(body, &nv) != nil {
			return
		}
		r.onNewView(m.From, nv)
	case msgStateReq:
		var s stateReqMsg
		if json.Unmarshal(body, &s) != nil {
			return
		}
		r.onStateReq(m.From, s)
	case msgStateRep:
		var s stateRepMsg
		if json.Unmarshal(body, &s) != nil {
			return
		}
		r.onStateRep(m.From, s)
	}
}

func (r *Replica) onRequest(req Request) {
	d := digestOf(&req)
	r.mu.Lock()
	if r.executedR[req.key()] {
		r.mu.Unlock()
		return
	}
	r.armViewChangeTimerLocked(d, req)
	if r.inVC || r.primaryOf(r.view) != r.id {
		// Backup (or mid-view-change): the request is only watched, so a
		// dead primary — or a stalled view change — triggers escalation
		// from f+1 replicas, not just the submitting one.
		r.mu.Unlock()
		return
	}
	// A client retry (same client seq) or a post-view-change revival can
	// re-deliver a request that is already proposed and waiting on votes;
	// a second instance would be a wasted consensus round (execution
	// dedups it to a no-op).
	if !r.inFlightLocked(req) {
		r.proposeLocked(d, req)
	}
	r.mu.Unlock()
}

// onPrePrepare accepts a pre-prepare whose MAC authenticated its header
// only: the request is hashed here, once, against the digest, and from
// then on the instance's digest stands for the request.
func (r *Replica) onPrePrepare(from string, pp prePrepareMsg) {
	// The cheap checks come before the hash, so a replica that is not the
	// current primary cannot make its peers hash requests for nothing.
	// The view is checked again under the lock below: it may move while
	// the request is hashed.
	r.mu.Lock()
	current := pp.View == r.view && !r.inVC
	r.mu.Unlock()
	if !current || from != r.primaryOf(pp.View) {
		return // only the current view's primary may pre-prepare
	}
	if digestOf(pp.Req) != pp.Digest {
		return // digest mismatch: Byzantine primary, or a request altered in flight
	}
	r.mu.Lock()
	if pp.View != r.view || r.inVC {
		r.mu.Unlock()
		return
	}
	inst := r.instLocked(pp.Seq)
	if inst.prePrepared && inst.digest != pp.Digest {
		r.mu.Unlock()
		return // conflicting pre-prepare for same (view, seq): equivocation
	}
	inst.prePrepared = true
	inst.digest = pp.Digest
	inst.req = pp.Req
	if pp.Seq >= r.nextSeq {
		r.nextSeq = pp.Seq + 1
	}
	// fsync point: the accepted pre-prepare must be durable before this
	// replica's prepare vote is sent.
	if !r.journalLocked(pbRecord{K: pbPP, View: pp.View, Seq: pp.Seq, Digest: pp.Digest, Req: pp.Req}) {
		r.mu.Unlock()
		return
	}
	view := r.view
	r.mu.Unlock()
	r.broadcast(msgPrepare, prepareMsg{View: view, Seq: pp.Seq, Digest: pp.Digest})
	r.mu.Lock()
	inst.prepares[r.id] = true
	r.maybeCommitLocked(pp.Seq)
	r.mu.Unlock()
}

func (r *Replica) onPrepare(from string, p prepareMsg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p.View != r.view || r.inVC {
		return
	}
	if from == r.primaryOf(p.View) {
		return // the pre-prepare already counts for the primary
	}
	inst := r.instLocked(p.Seq)
	if inst.prePrepared && inst.digest != p.Digest {
		return
	}
	inst.prepares[from] = true
	r.maybeCommitLocked(p.Seq)
}

// maybeCommitLocked sends a commit once the instance is "prepared":
// pre-prepare plus 2f prepares from backups (counting self, if a backup).
func (r *Replica) maybeCommitLocked(seq uint64) {
	inst := r.instLocked(seq)
	if !inst.prePrepared || inst.committed {
		return
	}
	if len(inst.prepares) < r.prepareQuorum() {
		return
	}
	inst.committed = true // locally "prepared"; send commit once
	inst.setCertLocked(seq, r.view)
	// fsync point: the prepared certificate must be durable before the
	// commit vote — a view change counts on recovered replicas still
	// holding their certificates. On failure the replica stays silent.
	if !r.journalLocked(pbRecord{K: pbCM, View: r.view, Seq: seq, Digest: inst.digest}) {
		return
	}
	c := commitMsg{View: r.view, Seq: seq, Digest: inst.digest}
	r.mu.Unlock()
	r.broadcast(msgCommit, c)
	r.mu.Lock()
	inst.commits[r.id] = true
	r.markDecidedLocked(seq, inst)
	r.maybeExecuteLocked()
}

func (r *Replica) onCommit(from string, c commitMsg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.View != r.view || r.inVC {
		return
	}
	inst := r.instLocked(c.Seq)
	if inst.prePrepared && inst.digest != c.Digest {
		return
	}
	inst.commits[from] = true
	r.markDecidedLocked(c.Seq, inst)
	r.maybeExecuteLocked()
}

// markDecidedLocked promotes an instance to decided once 2f+1 commit
// votes have been counted live. The check runs at every vote insertion
// (not in maybeExecuteLocked) because instances above an execution gap
// reach quorum without executing — exactly the ones that must survive a
// view change and be servable to recovering peers.
func (r *Replica) markDecidedLocked(seq uint64, inst *instState) {
	if inst.prePrepared && len(inst.commits) >= r.commitQuorum() {
		inst.decided = true
		// A decided digest is final, so it is also a valid certificate
		// even if this replica never reached its own prepare quorum.
		inst.setCertLocked(seq, r.view)
	}
}

// maybeExecuteLocked executes, in sequence order, each next instance
// that committed here or that f+1 state-transfer senders agree on (at
// least one of them is honest, so the request is the one the cluster
// committed). A durable replica executes nothing past a multiple of
// snapEvery while an apply is in flight: the last apply to return takes
// that point's snapshot (maybeSnapshotLocked), so none is skipped.
func (r *Replica) maybeExecuteLocked() {
	for r.log == nil || r.applying == 0 || r.execSeq%r.snapEvery != 0 {
		if inst, ok := r.insts[r.execSeq]; ok && !inst.executed && inst.prePrepared && len(inst.commits) >= r.commitQuorum() {
			r.executeInstanceLocked(r.execSeq, inst.digest, inst.req)
		} else if e, ok := r.vouchedLocked(); ok {
			r.executeInstanceLocked(e.Seq, e.Digest, e.Req)
		} else {
			return
		}
	}
}

// vouchedLocked returns the state-transfer entry for execSeq that f+1
// senders agree on.
func (r *Replica) vouchedLocked() (prePrepareMsg, bool) {
	votes := r.stateVotes[r.execSeq]
	for _, e := range votes {
		n := 0
		for _, o := range votes {
			if o.Digest == e.Digest {
				n++
			}
		}
		if n >= r.f+1 {
			return e, true
		}
	}
	return prePrepareMsg{}, false
}

// executeInstanceLocked executes one instance at r.execSeq: it records
// it as executed, appends to the exec log (served to restarted peers),
// dedups its request against executed client requests, applies it, and
// wakes its waiters. The mutex is released around the Applier call and
// re-held on return. Both the normal commit path and state-transfer
// catch-up land here, so a sequence can never execute twice. digest is
// digestOf(req) on every path (computed by the proposer, checked by
// onPrePrepare, onViewChange and onStateRep, or read back from this
// replica's own journal), so it is the key of req's waiters and timer.
func (r *Replica) executeInstanceLocked(seq uint64, digest Digest, req *Request) {
	inst := r.instLocked(seq)
	inst.executed = true
	inst.prePrepared = true
	inst.digest = digest
	inst.req = req
	r.execSeq = seq + 1
	r.execLog[seq] = prePrepareMsg{Seq: seq, Digest: digest, Req: req}
	delete(r.stateVotes, seq)
	// A null fill, or a request executed before, applies and wakes nothing.
	fresh := req != nil && !r.executedR[req.key()]
	var wake []chan struct{}
	if fresh {
		r.executedR[req.key()] = true
		wake = r.waiters[digest]
		delete(r.waiters, digest)
		if vt, ok := r.vcTimers[digest]; ok {
			vt.tmr.Stop()
			delete(r.vcTimers, digest)
		}
	}
	// fsync point: the executed instance (with its request — the dedup
	// marks must replay identically) is journaled before any waiter is
	// woken. A journal failure degrades to in-memory execution: the
	// instance committed cluster-wide and is recoverable by state
	// transfer. The outcome is kept to gate the checkpoint vote below —
	// durable-before-send (DESIGN §4e) — and since pbEX is a tolerated
	// kind (journalLocked returns true to keep executing), walFailed is
	// consulted too.
	durable := r.journalLocked(pbRecord{K: pbEX, Seq: seq, Digest: digest, Req: req}) && !r.walFailed
	apply := r.apply
	r.applying++
	r.mu.Unlock()
	if apply != nil && fresh {
		apply(seq, *req)
	}
	for _, ch := range wake {
		close(ch)
	}
	r.mu.Lock()
	r.applying--
	// Snapshot before the checkpoint vote releases mu: an execution that
	// slipped in then would move execSeq past the aligned point.
	r.maybeSnapshotLocked()
	// Checkpointing. The vote asserts "my state through execSeq is on
	// disk" to peers who will truncate their logs on a quorum of such
	// votes — so a replica whose journal append failed must stay
	// silent: after a crash it could not replay past its last durable
	// record, and a checkpoint quorum it joined would have let peers
	// discard the very entries needed to re-feed it.
	if durable && r.execSeq%r.opts.CheckpointEvery == 0 {
		ck := checkpointMsg{Seq: r.execSeq}
		r.mu.Unlock()
		r.broadcast(msgCheckpoint, ck)
		r.mu.Lock()
		r.recordCheckpointLocked(r.id, ck)
	}
}

func (r *Replica) onCheckpoint(from string, c checkpointMsg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recordCheckpointLocked(from, c)
}

func (r *Replica) recordCheckpointLocked(from string, c checkpointMsg) {
	if c.Seq <= r.stable {
		return
	}
	if r.ckpts[c.Seq] == nil {
		r.ckpts[c.Seq] = map[string]bool{}
	}
	r.ckpts[c.Seq][from] = true
	if len(r.ckpts[c.Seq]) >= r.commitQuorum() {
		r.stable = c.Seq
		// Garbage-collect the executed instances below the stable
		// checkpoint. An unexecuted one may already hold the votes for a
		// pre-prepare still on its way here; without them it never commits.
		for seq := range r.insts {
			if seq < r.stable && seq < r.execSeq {
				delete(r.insts, seq)
			}
		}
		for seq := range r.ckpts {
			if seq <= r.stable {
				delete(r.ckpts, seq)
			}
		}
	}
}

// --- view change ---

// StartViewChange broadcasts a view-change vote for the target view.
// Each view is voted for at most once; retransmission of a stalled vote
// goes through onViewChangeTimeout.
func (r *Replica) StartViewChange(newView uint64) {
	r.mu.Lock()
	if newView <= r.view || newView <= r.vcTarget {
		r.mu.Unlock()
		return
	}
	r.inVC = true
	r.vcTarget = newView
	r.vcSolo = 0
	vc := viewChangeMsg{
		NewView:  newView,
		Stable:   r.stable,
		Prepared: r.preparedSetLocked(),
		Exec:     r.execSeq,
	}
	r.mu.Unlock()
	r.broadcast(msgViewChange, vc)
	r.onViewChange(r.id, vc) // count own vote
}

// preparedSetLocked collects the prepared certificates above the stable
// checkpoint to hand to the next primary — including already-executed
// instances, as in the paper's P set. Executed entries matter: the new
// primary null-fills every gap below its NextSeq, and a committed
// sequence must appear in some certificate of any 2f+1 view-change
// quorum or it could be overwritten with a no-op. Certificates come
// from the sticky cert fields, not the per-view vote state: votes are
// wiped on every view entry, and a certificate must keep being
// reported for as long as a failed view-change cascade can keep asking.
func (r *Replica) preparedSetLocked() []prePrepareMsg {
	var out []prePrepareMsg
	for seq, inst := range r.insts {
		if seq >= r.stable && inst.cert != nil {
			out = append(out, *inst.cert)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

func (r *Replica) onViewChange(from string, vc viewChangeMsg) {
	r.mu.Lock()
	if vc.NewView <= r.view {
		r.mu.Unlock()
		return
	}
	if r.vcs[vc.NewView] == nil {
		r.vcs[vc.NewView] = map[string]viewChangeMsg{}
	}
	r.vcs[vc.NewView][from] = vc
	count := len(r.vcs[vc.NewView])
	target := r.vcTarget
	primary := r.primaryOf(vc.NewView)
	iAmNewPrimary := primary == r.id
	held, replay := r.nvHeld[primary]
	replay = replay && held.View == vc.NewView && count >= r.f+1
	if replay {
		delete(r.nvHeld, primary)
	}
	r.mu.Unlock()

	// Join a view change once f+1 replicas vote for a view beyond any
	// this replica has voted for (liveness rule — this is also how a
	// replica stuck in a lower stalled view change gets pulled forward).
	if vc.NewView > target && count >= r.f+1 {
		r.StartViewChange(vc.NewView)
	}
	if replay { // the view's new view came before the votes that let it count
		r.onNewView(primary, held)
	}
	if !iAmNewPrimary {
		return
	}
	r.mu.Lock()
	if len(r.vcs[vc.NewView]) < r.commitQuorum() || r.view >= vc.NewView {
		r.mu.Unlock()
		return
	}
	// Become primary of the new view: re-propose the union of prepared
	// certificates under the new view, and null-fill every other sequence
	// between the quorum's high-water floor and NextSeq. Without the
	// fill, a sequence a crashed primary assigned but nobody prepared
	// becomes a permanent gap that wedges execution forever. A filled
	// sequence cannot have committed anywhere: above every voter's
	// stable checkpoint AND executed floor nothing has been compacted
	// away, so a committed sequence still has 2f+1 live prepared
	// certificates and any view-change quorum contains one. Below a
	// voter's executed floor that argument is void — recovered replicas
	// hold no certificates for snapshotted history — so the floor also
	// lifts base: those sequences are served by state transfer, never
	// filled.
	adopt := map[uint64]prePrepareMsg{}
	base := r.stable
	if r.execSeq > base {
		base = r.execSeq
	}
	maxSeq := r.execSeq
	for _, v := range r.vcs[vc.NewView] {
		if v.Stable > base {
			base = v.Stable
		}
		if v.Exec > base {
			base = v.Exec
		}
		for _, pe := range v.Prepared {
			if digestOf(pe.Req) != pe.Digest {
				continue // not a certificate for any request: a Byzantine voter's
			}
			cur, ok := adopt[pe.Seq]
			if !ok || cur.View < pe.View {
				adopt[pe.Seq] = pe
			}
			if pe.Seq+1 > maxSeq {
				maxSeq = pe.Seq + 1
			}
		}
	}
	if base > maxSeq {
		maxSeq = base
	}
	nv := newViewMsg{View: vc.NewView, NextSeq: maxSeq}
	for _, pe := range adopt {
		if pe.Seq < base {
			continue // covered by a stable checkpoint; state transfer serves it
		}
		pe.View = vc.NewView
		nv.PrePrepares = append(nv.PrePrepares, pe)
	}
	for seq := base; seq < maxSeq; seq++ {
		if _, ok := adopt[seq]; ok {
			continue
		}
		nv.PrePrepares = append(nv.PrePrepares, prePrepareMsg{View: vc.NewView, Seq: seq, Digest: digestOf(nil)})
	}
	sort.Slice(nv.PrePrepares, func(i, j int) bool { return nv.PrePrepares[i].Seq < nv.PrePrepares[j].Seq })
	revive := r.enterViewLocked(vc.NewView, maxSeq)
	r.mu.Unlock()
	r.broadcast(msgNewView, nv)
	// Process own re-proposals.
	for _, pp := range nv.PrePrepares {
		r.reproposeAsPrimary(pp)
	}
	// Propose every request this replica was merely watching as a backup.
	// Executed-request dedup makes overlap with a re-proposed prepared
	// request harmless, but a request in no instance has no other way
	// into the new view.
	for _, req := range revive {
		r.onRequest(req)
	}
}

// reproposeAsPrimary replays a prepared instance under the new view.
func (r *Replica) reproposeAsPrimary(pp prePrepareMsg) {
	r.mu.Lock()
	inst := r.instLocked(pp.Seq)
	if inst.executed || inst.decided {
		// A decided instance is final and carries this same digest (its
		// 2f+1 prepared certificates intersect every view-change quorum,
		// so the adopted re-proposal cannot differ). Backups that lack it
		// re-run agreement among themselves off the new-view broadcast;
		// resetting it here would only discard a finished decision.
		r.mu.Unlock()
		return
	}
	inst.resetVotesLocked()
	inst.prePrepared = true
	inst.digest = pp.Digest
	inst.req = pp.Req
	if !r.journalLocked(pbRecord{K: pbPP, View: pp.View, Seq: pp.Seq, Digest: pp.Digest, Req: pp.Req}) {
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	r.broadcast(msgPrePrepare, pp)
	r.mu.Lock()
	r.maybeCommitLocked(pp.Seq)
	r.mu.Unlock()
}

// onNewView enters the view a new primary announces. The announcement
// counts only once this replica holds view-change votes for that view
// from f+1 replicas (its own among them, if it voted), so at least one
// honest replica wanted it: as with view claims in
// state replies (onStateRep), one sender, even the view's primary, cannot
// move a replica into a view of its choosing. Votes and the new view
// come from different senders, so the new view may arrive first: it is
// then held, the latest one per sender, and onViewChange replays it when
// the votes for its view reach f+1. The first time a sender's new view
// for a view is held, the replica also syncs, in case it missed the
// votes for good: its peers' view claims then move it once f+1 of them
// are in the new view. One sync per sender and view, so a primary cannot
// make a replica broadcast by repeating its message.
func (r *Replica) onNewView(from string, nv newViewMsg) {
	r.mu.Lock()
	if nv.View <= r.view || from != r.primaryOf(nv.View) {
		r.mu.Unlock()
		return
	}
	if len(r.vcs[nv.View]) < r.f+1 {
		first := r.nvHeld[from].View != nv.View
		r.nvHeld[from] = nv
		r.mu.Unlock()
		if first {
			r.Sync()
		}
		return
	}
	revive := r.enterViewLocked(nv.View, nv.NextSeq)
	pps := nv.PrePrepares
	r.mu.Unlock()
	// Relay watched requests to the new primary: it may never have seen
	// them (partitioned, or the request raced the view change), and a
	// backup cannot propose on their behalf.
	for _, req := range revive {
		r.send(from, msgRequest, req)
	}
	// Reset in-flight instances that were not executed, then process the
	// new primary's re-proposals through the normal path.
	for _, pp := range pps {
		r.mu.Lock()
		inst := r.instLocked(pp.Seq)
		if !inst.executed && !inst.decided {
			inst.resetVotesLocked()
		}
		r.mu.Unlock()
		r.onPrePrepare(from, pp)
	}
}

// enterViewLocked switches the replica into a new view. It returns the
// watched (armed, un-executed) requests so the caller can revive them in
// the new view: the new primary must propose them and backups must relay
// them to it. A request that arrived while the old view was collapsing is
// held only in vcTimers — no instance carries it — so without this
// handoff the timers drive view change after view change while no
// primary ever proposes the request: a permanent livelock.
func (r *Replica) enterViewLocked(view, nextSeq uint64) []Request {
	r.view = view
	r.inVC = false
	r.vcSolo = 0
	// Journal the view switch so a recovered replica rejoins in the view
	// it left (prepared certificates are view-scoped). Failure is
	// tolerable: a stale recovered view is pulled forward by the f+1
	// view-change rule.
	_ = r.journalLocked(pbRecord{K: pbView, View: view, Seq: nextSeq})
	if view > r.vcTarget {
		r.vcTarget = view
	}
	// The new-view NextSeq is authoritative in both directions: everything
	// below it is covered by the re-proposals and null fills, everything at
	// or above it is unassigned. Keeping a higher local value (inflated by
	// a dead view's pre-prepares) would make the next primary assign past
	// a gap nobody fills.
	r.nextSeq = nextSeq
	delete(r.vcs, view)
	for from, nv := range r.nvHeld {
		if nv.View <= view {
			delete(r.nvHeld, from)
		}
	}
	// Drop un-executed per-view votes; they are invalid in the new view.
	// Prepared certificates persist (resetVotesLocked leaves them) — they
	// must keep appearing in view-change messages until checkpointed.
	// Decided instances are exempt entirely: a counted 2f+1 commit quorum
	// is final regardless of view, and wiping it would strand the
	// instance (nobody re-sends commit votes) until state transfer
	// happens to cover it.
	for _, inst := range r.insts {
		if !inst.executed && !inst.decided {
			inst.resetVotesLocked()
		}
	}
	// Restart the watchdogs: timers armed in the old view carry stale
	// deadlines — left running they fire mid-recovery and cascade into
	// further view changes. Pending requests get a full fresh timeout
	// under the new primary; executed ones are dropped outright.
	var rearm []Request
	var digests []Digest
	for d, vt := range r.vcTimers {
		vt.tmr.Stop()
		delete(r.vcTimers, d)
		if !r.executedR[vt.req.key()] {
			rearm = append(rearm, vt.req)
			digests = append(digests, d)
		}
	}
	for i, req := range rearm {
		r.armViewChangeTimerLocked(digests[i], req)
	}
	return rearm
}

// --- crash / restart / state transfer ---

// Crash detaches the replica from the network, simulating a process
// crash: armed timers die with the process. Consensus state (executed
// log, instances, view) survives in this object, standing in for the
// replica's stable storage.
func (r *Replica) Crash() error {
	if err := r.net.Crash(r.id); err != nil {
		return err
	}
	r.mu.Lock()
	for d, vt := range r.vcTimers {
		vt.tmr.Stop()
		delete(r.vcTimers, d)
	}
	r.inVC = false
	// Volatile view-change state dies with the process: any vote this
	// replica had broadcast is treated as lost, so after a restart it can
	// vote (idempotently) again instead of orphaning its old target.
	r.vcTarget = r.view
	r.mu.Unlock()
	return nil
}

// Restart reattaches a crashed replica and pulls the executed history it
// missed from its peers (checkpoint/state transfer).
func (r *Replica) Restart() error {
	if err := r.net.Restart(r.id, r.handle); err != nil {
		return err
	}
	r.Sync()
	return nil
}

// Sync asks all peers for executed instances at or above this replica's
// execution point. Replies are applied once f+1 replicas agree on a
// sequence's digest, so no single Byzantine peer can poison catch-up.
func (r *Replica) Sync() {
	r.mu.Lock()
	have := r.execSeq
	// Retransmit commit votes for certified but un-executed sequences.
	// After a crash, recovery restores the certificate with committed =
	// true — which (correctly) suppresses a fresh vote in the normal
	// path — but the pre-crash votes counted by peers died with their
	// incarnations too. If every replica that commit-voted a sequence
	// crashed before executing it, nobody ever re-sends, the quorum can
	// never be re-counted, and the sequence wedges even though 2f+1
	// replicas hold its certificate. Re-voting an idempotent commit on
	// every Sync (the convergence hook) lets the survivors re-assemble
	// the quorum live instead of depending on f+1 state-transfer
	// vouchers that may not exist.
	var revotes []commitMsg
	for seq := r.execSeq; seq < r.nextSeq; seq++ {
		inst, ok := r.insts[seq]
		if !ok || inst.executed || inst.cert == nil {
			continue
		}
		revotes = append(revotes, commitMsg{View: r.view, Seq: seq, Digest: inst.cert.Digest})
		inst.commits[r.id] = true
	}
	view := r.view
	r.mu.Unlock()
	r.broadcast(msgStateReq, stateReqMsg{Have: have, View: view})
	for _, c := range revotes {
		r.broadcast(msgCommit, c)
	}
}

func (r *Replica) onStateReq(from string, s stateReqMsg) {
	r.mu.Lock()
	rep := stateRepMsg{View: r.view}
	// Alongside each served entry goes a fresh commit vote: this replica
	// executed (or decided) the sequence, so re-attesting it is sound,
	// and it lets a straggler whose own certificate plus peer re-votes
	// fall one short of 2f+1 re-assemble the quorum live — the executor
	// itself never appears in Sync's re-vote loop because the sequence is
	// below its own execution point.
	var revotes []commitMsg
	for seq := s.Have; seq < r.execSeq; seq++ {
		if e, ok := r.execLog[seq]; ok {
			rep.Entries = append(rep.Entries, e)
			revotes = append(revotes, commitMsg{View: r.view, Seq: seq, Digest: e.Digest})
		}
	}
	// Decided-but-unexecuted instances (above a local execution gap) are
	// just as vouchable as executed ones: a counted 2f+1 commit quorum is
	// final. Serving them widens the voucher pool so a straggler can reach
	// the f+1-sender threshold even when few peers retain a given range.
	for seq, inst := range r.insts {
		if seq >= s.Have && inst.decided && !inst.executed {
			rep.Entries = append(rep.Entries, prePrepareMsg{Seq: seq, Digest: inst.digest, Req: inst.req})
		}
	}
	// Alongside whatever entries it retains, a durable replica offers the
	// image in its newest snapshot, whatever the requester's floor:
	// adoption needs f+1 byte-identical images and execution f+1
	// matching entries, so under mixed retention (one peer compacted to
	// its snapshot, another still holding entries) a straggler counting
	// one vote in each would starve. Snapshots fall on multiples of
	// snapEvery, so any f+1 peers past the same one offer the same image.
	// None can be above have unless the last multiple at or below
	// execSeq is; the image is read back from disk outside mu.
	log := r.log
	serve := r.logApp != nil && r.execSeq-r.execSeq%r.snapEvery > s.Have
	r.mu.Unlock()
	if serve {
		rep.Snap = storedImage(log, s.Have)
	}
	if len(rep.Entries) > 0 || rep.Snap != nil || rep.View > s.View {
		r.send(from, msgStateRep, rep)
	}
	for _, c := range revotes {
		r.send(from, msgCommit, c)
	}
}

// imageKey is the canonical digest a state image is voted under.
func imageKey(img *stateImage) string {
	b, _ := json.Marshal(img)
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%d|%x", img.ExecSeq, sum)
}

func (r *Replica) onStateRep(from string, s stateRepMsg) {
	r.mu.Lock()
	// View synchronization: adopt a newer view once f+1 distinct senders
	// attest to being at or beyond it — at least one of them is honest,
	// so the view-change protocol genuinely completed there. One claim is
	// not enough: a single Byzantine peer could otherwise yank replicas
	// into an arbitrary future view and stall the cluster.
	if s.View > r.view {
		if r.viewClaims == nil {
			r.viewClaims = make(map[string]uint64)
		}
		r.viewClaims[from] = s.View
		claims := make([]uint64, 0, len(r.viewClaims))
		for _, v := range r.viewClaims {
			if v > r.view {
				claims = append(claims, v)
			}
		}
		if len(claims) >= r.f+1 {
			sort.Slice(claims, func(i, j int) bool { return claims[i] > claims[j] })
			if v := claims[r.f]; v > r.view { // f+1 senders claim ≥ v
				revive := r.enterViewLocked(v, r.nextSeq)
				primary := r.primaryOf(v)
				r.mu.Unlock()
				for _, req := range revive {
					r.send(primary, msgRequest, req)
				}
				r.mu.Lock()
			}
		}
	}
	if s.Snap != nil {
		r.recordImageLocked(from, s.Snap)
	}
	for _, e := range s.Entries {
		if e.Seq < r.execSeq || digestOf(e.Req) != e.Digest {
			continue
		}
		if r.stateVotes[e.Seq] == nil {
			r.stateVotes[e.Seq] = make(map[string]prePrepareMsg)
		}
		r.stateVotes[e.Seq][from] = e
	}
	r.maybeExecuteLocked()
	r.mu.Unlock()
}

// recordImageLocked counts one sender behind a state image and adopts
// the image once f+1 distinct senders offer byte-identical state — the
// checkpoint-transfer path for a replica so far behind that no peer
// retains the executed instances it needs.
func (r *Replica) recordImageLocked(from string, img *stateImage) {
	if img.ExecSeq <= r.execSeq || r.logApp == nil || r.applying != 0 {
		return
	}
	for k, v := range r.imgVotes {
		if v.img.ExecSeq <= r.execSeq {
			delete(r.imgVotes, k) // overtaken by normal execution
		}
	}
	key := imageKey(img)
	v := r.imgVotes[key]
	if v == nil {
		v = &imgVote{img: *img, senders: make(map[string]bool)}
		if r.imgVotes == nil {
			r.imgVotes = make(map[string]*imgVote)
		}
		r.imgVotes[key] = v
	}
	v.senders[from] = true
	if len(v.senders) < r.f+1 {
		return
	}
	r.adoptImageLocked(&v.img)
}

// adoptImageLocked jumps this replica to a peer-certified state image
// and stores it as its own snapshot, so the jump survives a further
// crash. The image is refused if the application cannot restore it;
// entry-based transfer may still work.
func (r *Replica) adoptImageLocked(img *stateImage) {
	if r.installLocked(img) != nil {
		return
	}
	if r.stable < img.ExecSeq {
		r.stable = img.ExecSeq
	}
	r.writeSnapshotLocked(*img)
}
