package core

import (
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"

	"prever/internal/commit"
	"prever/internal/ledger"
	"prever/internal/zk"
)

// ZKBoundManager is the proof-carrying flavour of Research Challenge 1:
// instead of an online comparison oracle, the data OWNER proves in zero
// knowledge that each update keeps the (hidden) running total within a
// public bound. The untrusted manager holds only Pedersen commitments; it
// homomorphically folds each update's commitment into the group's running
// commitment and verifies the owner's bound proof against the fold. No
// interaction with the owner is needed at verification time, and nothing
// but the verdict leaks.
//
// The division of labour mirrors the paper's zero-knowledge discussion
// (§5): "the data manager who knows the secret can run the smart contract
// on its own, and then prove to everyone else that it did so correctly" —
// here the owner knows the secret values and proves; everyone (the
// manager, auditors) verifies.
// Concurrency: proof verification (the expensive group exponentiations)
// runs OUTSIDE the lock against a snapshot of the group's running
// commitment; incorporation re-checks the snapshot under a short critical
// section and re-verifies serially in the (SubmitZKBatch's per-group
// ordering never hits it) case that the group advanced mid-verify.
// Different groups therefore verify fully in parallel.
type ZKBoundManager struct {
	name   string
	stats  statsRecorder
	params *commit.Params
	bound  *big.Int
	ledger *ledger.Ledger

	mu      sync.RWMutex
	running map[string]commit.Commitment
}

// ZKUpdate is the proof-carrying update the owner sends.
type ZKUpdate struct {
	ID       string
	Producer string
	Group    string
	C        commit.Commitment // commitment to this update's value
	Proof    zk.BoundProof     // proof that running+this <= bound
}

// NewZKBoundManager builds the manager side.
func NewZKBoundManager(name string, params *commit.Params, bound int64) (*ZKBoundManager, error) {
	if params == nil {
		return nil, errors.New("core: nil commitment params")
	}
	if bound < 0 {
		return nil, errors.New("core: negative bound")
	}
	return &ZKBoundManager{
		name:    name,
		params:  params,
		bound:   big.NewInt(bound),
		ledger:  ledger.New(),
		running: make(map[string]commit.Commitment),
	}, nil
}

// Name identifies the engine.
func (m *ZKBoundManager) Name() string { return m.name }

// Stats reports the engine's submission counters.
func (m *ZKBoundManager) Stats() Stats { return m.stats.snapshot() }

// Ledger exposes the integrity layer.
func (m *ZKBoundManager) Ledger() *ledger.Ledger { return m.ledger }

// Running returns the current running commitment for a group (identity
// commitment for unseen groups).
func (m *ZKBoundManager) Running(group string) commit.Commitment {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.runningLocked(group)
}

func (m *ZKBoundManager) runningLocked(group string) commit.Commitment {
	if c, ok := m.running[group]; ok {
		return c
	}
	// Commit(0) with zero randomness: the homomorphic identity.
	return m.params.CommitPublic(big.NewInt(0))
}

// proofContext binds a proof to this manager, group and update.
func proofContext(name, group, updateID string) string {
	return "prever/zkbound/" + name + "/" + group + "/" + updateID
}

// SubmitZK verifies the proof against the folded commitment and, if
// valid, advances the group's running commitment and anchors both the
// update commitment and the new running commitment in the ledger.
//
// The expensive verification runs outside the lock against a snapshot of
// the group's fold; incorporation commits only if the fold is unchanged
// (SubmitZKBatch serializes same-group submissions, so the re-verify
// fallback is reserved for callers racing one group themselves).
func (m *ZKBoundManager) SubmitZK(u ZKUpdate) (r Receipt, err error) {
	start := time.Now()
	defer func() { m.stats.record(start, r, err) }()
	if u.C.C == nil {
		return Receipt{}, errors.New("core: update carries no commitment")
	}
	if !m.params.Group.Contains(u.C.C) {
		return Receipt{}, errors.New("core: commitment outside the group")
	}
	// Verify (read-locked snapshot; proof check runs lock-free).
	m.mu.RLock()
	prev := m.runningLocked(u.Group)
	m.mu.RUnlock()
	combined := m.params.Add(prev, u.C)
	ctx := proofContext(m.name, u.Group, u.ID)
	verr := zk.VerifyBound(m.params, combined, m.bound, u.Proof, ctx)
	// Incorporate (short critical section).
	m.mu.Lock()
	if cur := m.runningLocked(u.Group); !cur.Equal(prev) {
		// The group's fold advanced mid-verify: redo against it.
		combined = m.params.Add(cur, u.C)
		verr = zk.VerifyBound(m.params, combined, m.bound, u.Proof, ctx)
	}
	if verr != nil {
		m.mu.Unlock()
		return m.rejection(u.ID), nil
	}
	m.running[u.Group] = combined
	m.mu.Unlock()
	payload := append(u.C.Bytes(), combined.Bytes()...)
	rcpt, err := m.ledger.Put("zk/"+u.Group+"/"+u.ID, payload, u.Producer, u.ID)
	if err != nil {
		return Receipt{}, fmt.Errorf("core: ledger: %w", err)
	}
	return Receipt{UpdateID: u.ID, Accepted: true, LedgerSeq: rcpt.Seq}, nil
}

// rejection is the receipt for an update whose bound proof did not
// verify against the fold it would have produced.
func (m *ZKBoundManager) rejection(updateID string) Receipt {
	return Receipt{
		UpdateID: updateID,
		Accepted: false,
		Violated: m.name,
		Reason:   "bound proof invalid or bound exceeded",
	}
}

// ZKLane is the batch ordering key for proof-carrying updates: proofs
// chain per group, so a group's updates must apply in production order.
func ZKLane(u ZKUpdate) string { return u.Group }

// SubmitZKBatch verifies a batch with one folded check per group:
// updates are partitioned by group (each group's subsequence keeps its
// submission order), groups verify concurrently, and within a group the
// whole chain of bound proofs is checked by a single
// zk.VerifyBoundBatch multi-exponentiation (submitZKGroup). Receipts
// come back in input order.
func (m *ZKBoundManager) SubmitZKBatch(us []ZKUpdate) ([]Receipt, error) {
	return SubmitGrouped(m.submitZKGroup, ZKLane, us)
}

// submitZKGroup is the amortized verify path for one group's ordered
// updates. It optimistically assumes no concurrent submission advances
// the group's fold, and checks all proofs against the prospective chain
// of folded commitments with one batched verification, which bisects a
// failed fold down to exact per-proof verdicts. The updates before the
// first rejected one were verified against the very chain SubmitZK
// would have built, so they are incorporated as verified; the rejected
// one gets SubmitZK's rejection receipt; only the updates after it —
// checked against a chain that includes the rejected value — go through
// SubmitZK, against the fold as it then stands. If any update is
// structurally malformed, verification fails operationally, or the
// fold moved mid-verify, the whole group replays through SubmitZK.
func (m *ZKBoundManager) submitZKGroup(us []ZKUpdate) (rs []Receipt, err error) {
	if len(us) < 2 {
		return SubmitSequential(m.SubmitZK, us)
	}
	group := us[0].Group
	start := time.Now()
	for _, u := range us {
		if u.Group != group || u.C.C == nil || !m.params.Group.Contains(u.C.C) {
			return SubmitSequential(m.SubmitZK, us)
		}
	}
	// Prospective chain against a snapshot of the fold (lock-free verify,
	// as in SubmitZK).
	m.mu.RLock()
	prev := m.runningLocked(group)
	m.mu.RUnlock()
	combined := make([]commit.Commitment, len(us))
	proofs := make([]zk.BoundProof, len(us))
	ctxs := make([]string, len(us))
	cur := prev
	for i, u := range us {
		cur = m.params.Add(cur, u.C)
		combined[i] = cur
		proofs[i] = u.Proof
		ctxs[i] = proofContext(m.name, group, u.ID)
	}
	verrs, verr := zk.VerifyBoundBatch(m.params, combined, m.bound, proofs, ctxs, nil)
	if verr != nil {
		return SubmitSequential(m.SubmitZK, us)
	}
	// us[:k] verified; us[k], if there is one, did not.
	k := 0
	for k < len(us) && verrs[k] == nil {
		k++
	}
	// Incorporate: only if the fold is still where verification left it.
	m.mu.Lock()
	if got := m.runningLocked(group); !got.Equal(prev) {
		m.mu.Unlock()
		return SubmitSequential(m.SubmitZK, us)
	}
	if k > 0 {
		m.running[group] = combined[k-1]
	}
	m.mu.Unlock()
	m.stats.recordBatch(k)
	rs = make([]Receipt, len(us))
	var firstErr error
	for i, u := range us[:k] {
		payload := append(u.C.Bytes(), combined[i].Bytes()...)
		rcpt, lerr := m.ledger.Put("zk/"+group+"/"+u.ID, payload, u.Producer, u.ID)
		if lerr != nil {
			lerr = fmt.Errorf("core: ledger: %w", lerr)
			if firstErr == nil {
				firstErr = lerr
			}
			m.stats.record(start, Receipt{}, lerr)
			continue
		}
		rs[i] = Receipt{UpdateID: u.ID, Accepted: true, LedgerSeq: rcpt.Seq}
		m.stats.record(start, rs[i], nil)
	}
	if k < len(us) {
		rs[k] = m.rejection(us[k].ID)
		m.stats.record(start, rs[k], nil)
		rest, rerr := SubmitSequential(m.SubmitZK, us[k+1:])
		copy(rs[k+1:], rest)
		if firstErr == nil {
			firstErr = rerr
		}
	}
	return rs, firstErr
}

// ZKOwner is the data-owner side: it knows the plaintext values and
// running totals (its own data), produces commitments and bound proofs.
type ZKOwner struct {
	params  *commit.Params
	manager string
	bound   int64

	mu     sync.Mutex
	totals map[string]ownerTotal
}

type ownerTotal struct {
	total   int64
	opening commit.Opening
}

// NewZKOwner creates the owner side, mirroring a manager with the same
// name and bound.
func NewZKOwner(params *commit.Params, managerName string, bound int64) *ZKOwner {
	return &ZKOwner{
		params:  params,
		manager: managerName,
		bound:   bound,
		totals:  make(map[string]ownerTotal),
	}
}

// Total returns the owner-side running total for a group.
func (o *ZKOwner) Total(group string) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.totals[group].total
}

// ProduceUpdate commits to value and proves the new running total stays
// within the bound. It refuses to produce updates that would violate the
// regulation (an honest owner cannot prove a false statement anyway; a
// dishonest owner's forged proof will not verify). On success the owner's
// local running total advances — call only when the update will be
// submitted.
func (o *ZKOwner) ProduceUpdate(id, producer, group string, value int64) (ZKUpdate, error) {
	if value < 0 {
		return ZKUpdate{}, errors.New("core: zk bound updates must be non-negative")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	cur, ok := o.totals[group]
	if !ok {
		cur.opening = commit.Opening{M: big.NewInt(0), R: big.NewInt(0)}
	}
	newTotal := cur.total + value
	if newTotal > o.bound {
		return ZKUpdate{}, &ErrRejected{Receipt: Receipt{
			UpdateID: id,
			Accepted: false,
			Violated: o.manager,
			Reason:   fmt.Sprintf("owner refuses: total %d + %d exceeds bound %d", cur.total, value, o.bound),
		}}
	}
	c, opening, err := o.params.Commit(big.NewInt(value), nil)
	if err != nil {
		return ZKUpdate{}, err
	}
	combinedOpening := o.params.AddOpenings(cur.opening, opening)
	combined := o.params.CommitWith(combinedOpening.M, combinedOpening.R)
	ctx := proofContext(o.manager, group, id)
	proof, err := zk.ProveBound(o.params, combined, combinedOpening, big.NewInt(o.bound), ctx, nil)
	if err != nil {
		return ZKUpdate{}, err
	}
	o.totals[group] = ownerTotal{total: newTotal, opening: combinedOpening}
	return ZKUpdate{ID: id, Producer: producer, Group: group, C: c, Proof: proof}, nil
}
