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
// commitment; a short critical section re-checks the snapshot, advances
// the fold and anchors the accepted updates in the ledger, so a group's
// ledger entries come in fold order. If the group advanced mid-verify,
// the updates verify again against the fold as it stands (SubmitZKBatch's
// per-group ordering never hits it). Different groups therefore verify
// fully in parallel.
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

// Stats reports the engine's submission counters.
func (m *ZKBoundManager) Stats() Stats { return m.stats.snapshot() }

// Ledger exposes the integrity layer.
func (m *ZKBoundManager) Ledger() *ledger.Ledger { return m.ledger }

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
// update commitment and the new running commitment in the ledger. It is
// submitZKGroup of one.
func (m *ZKBoundManager) SubmitZK(u ZKUpdate) (Receipt, error) {
	rs, err := m.submitZKGroup([]ZKUpdate{u})
	return rs[0], err
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

// submitZKGroup is the verify path for one group's ordered updates,
// one SubmitZK after another in effect. An update without a commitment
// or with one outside the group gets an operational error and never
// joins the fold. The rest go round one loop: snapshot the group's
// fold; check every remaining proof against the prospective chain of
// folded commitments with one VerifyBoundBatch (lock-free); then, under
// the lock and only if the fold has not moved meanwhile, advance it by
// the verified prefix and anchor those updates in the ledger, and
// reject the first update that failed. The updates after it were
// checked against a chain holding the rejected value, so they go round
// again against the fold as it now stands. A fold that moved mid-verify
// sends the same updates round again.
//
// Stats.BatchVerified counts the updates accepted by a fold that
// covered two or more updates; a lone SubmitZK adds nothing.
func (m *ZKBoundManager) submitZKGroup(us []ZKUpdate) ([]Receipt, error) {
	start := time.Now()
	group := us[0].Group
	rs := make([]Receipt, len(us))
	errs := make([]error, len(us))
	live := make([]int, 0, len(us))
	for i, u := range us {
		switch {
		case u.C.C == nil:
			errs[i] = errors.New("core: update carries no commitment")
		case !m.params.Group.Contains(u.C.C):
			errs[i] = errors.New("core: commitment outside the group")
		default:
			live = append(live, i)
		}
	}
	for len(live) > 0 {
		m.mu.RLock()
		prev := m.runningLocked(group)
		m.mu.RUnlock()
		combined := make([]commit.Commitment, len(live))
		proofs := make([]zk.BoundProof, len(live))
		ctxs := make([]string, len(live))
		cur := prev
		for k, i := range live {
			cur = m.params.Add(cur, us[i].C)
			combined[k] = cur
			proofs[k] = us[i].Proof
			ctxs[k] = proofContext(m.name, group, us[i].ID)
		}
		verrs, verr := zk.VerifyBoundBatch(m.params, combined, m.bound, proofs, ctxs, nil)
		if verr != nil {
			for _, i := range live {
				errs[i] = verr
			}
			break
		}
		// live[:k] verified; live[k], if there is one, did not.
		k := 0
		for k < len(live) && verrs[k] == nil {
			k++
		}
		m.mu.Lock()
		if !m.runningLocked(group).Equal(prev) {
			m.mu.Unlock()
			continue
		}
		for j, i := range live[:k] {
			u := us[i]
			m.running[group] = combined[j]
			payload := append(u.C.Bytes(), combined[j].Bytes()...)
			rcpt, lerr := m.ledger.Put("zk/"+group+"/"+u.ID, payload, u.Producer, u.ID)
			if lerr != nil {
				errs[i] = fmt.Errorf("core: ledger: %w", lerr)
				continue
			}
			rs[i] = Receipt{UpdateID: u.ID, Accepted: true, LedgerSeq: rcpt.Seq}
		}
		m.mu.Unlock()
		if len(live) > 1 {
			m.stats.recordBatch(k)
		}
		if k < len(live) {
			// Its proof did not verify against the fold it would produce.
			rs[live[k]] = Receipt{UpdateID: us[live[k]].ID, Violated: m.name, Reason: "bound proof invalid or bound exceeded"}
			k++
		}
		live = live[k:]
	}
	var firstErr error
	for i := range us {
		m.stats.record(start, rs[i], errs[i])
		if firstErr == nil {
			firstErr = errs[i]
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

// ownerTotal is a group's running total with its opening and the fold
// it opens, the commitment the manager holds for the group.
type ownerTotal struct {
	total   int64
	opening commit.Opening
	fold    commit.Commitment
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
		cur.fold = commit.Commitment{C: big.NewInt(1)} // Commit(0, 0)
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
	// The new fold is the old one times c, the manager's own fold: one
	// multiplication where committing to the combined opening afresh
	// would take two fixed-base exponentiations.
	combinedOpening := o.params.AddOpenings(cur.opening, opening)
	combined := o.params.Add(cur.fold, c)
	ctx := proofContext(o.manager, group, id)
	proof, err := zk.ProveBound(o.params, combined, combinedOpening, big.NewInt(o.bound), ctx, nil)
	if err != nil {
		return ZKUpdate{}, err
	}
	o.totals[group] = ownerTotal{total: newTotal, opening: combinedOpening, fold: combined}
	return ZKUpdate{ID: id, Producer: producer, Group: group, C: c, Proof: proof}, nil
}
