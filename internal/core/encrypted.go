package core

import (
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"

	"prever/internal/constraint"
	"prever/internal/he"
	"prever/internal/ledger"
	"prever/internal/mpc"
)

// EncryptedManager is the Research Challenge 1 engine: a single private
// database held by an UNTRUSTED data manager. Numeric update fields arrive
// Paillier-encrypted under the data owner's key; the manager never sees
// plaintext. Bound-shaped constraints (Σ terms <= B) are verified
// homomorphically: the manager aggregates ciphertexts, forms the masked
// difference Enc(k·(total - B)), and a sign oracle (the owner, or a
// semi-trusted helper — never the manager) reveals only its sign: an upper
// bound holds on sign <= 0, a lower bound on sign >= 0. Accepted
// ciphertexts are anchored in a centralized ledger, so the owner can audit
// that the manager incorporated exactly the accepted updates (Research
// Challenge 4).
//
// Leakage: the manager learns the verdict bit per update and the grouping
// field (needed for routing); the oracle learns sign(total - B) and the
// masked magnitude k·|total - B|. Neither learns any plaintext value.
//
// The producer is untrusted too: every ciphertext of an update must be
// well formed under the key (he.PublicKey.Valid) before the manager
// computes on it or anchors it.
type EncryptedManager struct {
	name   string
	stats  statsRecorder
	pk     *he.PublicKey
	oracle mpc.SignOracle
	specs  []*BoundSpec
	ledger *ledger.Ledger

	mu sync.Mutex
	// groups keys aggregate histories by "<spec name>/<group value>": each
	// constraint maintains its own windowed ciphertext history.
	groups map[string][]aggEntry
}

type aggEntry struct {
	ts time.Time
	ct *he.Ciphertext
}

// BoundSpec is the engine-facing form of a compiled bound constraint: one
// optional grouped aggregate plus update-field terms.
type BoundSpec struct {
	Name string
	// Agg describes the stateful aggregate term, nil for stateless bounds.
	Agg *AggTermSpec
	// UpdateTerms maps encrypted update fields to their coefficients.
	UpdateTerms map[string]int64
	// Const is the constant offset.
	Const int64
	// Bound and Upper define "total <= Bound" (Upper) or "total >= Bound".
	Bound int64
	Upper bool
}

// AggTermSpec describes the aggregate term SUM/COUNT(table.col WHERE
// table.group = u.group [WITHIN window OF u.ts]).
type AggTermSpec struct {
	Coeff      int64
	Column     string        // encrypted update field accumulated; "" for COUNT
	GroupField string        // plaintext routing field
	Window     time.Duration // 0 = cumulative
}

// DeriveBoundSpec converts a compiled linear bound into an engine spec,
// validating that its shape is supported: at most one SUM/COUNT aggregate,
// whose WHERE is exactly `table.g = u.g` (either order), with an optional
// window anchored at u.ts.
func DeriveBoundSpec(name string, form *constraint.BoundForm) (*BoundSpec, error) {
	spec := &BoundSpec{Name: name, UpdateTerms: map[string]int64{}, Bound: form.Bound, Upper: form.UpperBound()}
	// Normalize strict bounds to inclusive ones (integer domain).
	switch form.Op {
	case constraint.OpLt:
		spec.Bound--
	case constraint.OpGt:
		spec.Bound++
	}
	for _, t := range form.Terms {
		switch {
		case t.IsConst:
			spec.Const += t.Coeff
		case t.UpdateField != "":
			spec.UpdateTerms[t.UpdateField] += t.Coeff
		case t.Agg != nil:
			if spec.Agg != nil {
				return nil, errors.New("core: bound has more than one aggregate term")
			}
			agg, err := deriveAggSpec(t.Agg, t.Coeff)
			if err != nil {
				return nil, err
			}
			spec.Agg = agg
		}
	}
	return spec, nil
}

func deriveAggSpec(a *constraint.Agg, coeff int64) (*AggTermSpec, error) {
	if a.Fn != constraint.FnSum && a.Fn != constraint.FnCount {
		return nil, fmt.Errorf("core: aggregate %s not supported under encryption", a.Fn)
	}
	spec := &AggTermSpec{Coeff: coeff, Column: a.Column}
	if a.Where == nil {
		return nil, errors.New("core: encrypted aggregates need a `table.g = u.g` grouping filter")
	}
	eq, ok := a.Where.(*constraint.Binary)
	if !ok || eq.Op != constraint.OpEq {
		return nil, errors.New("core: unsupported aggregate filter (need table.g = u.g)")
	}
	lRef, lok := eq.L.(*constraint.Ref)
	rRef, rok := eq.R.(*constraint.Ref)
	if !lok || !rok {
		return nil, errors.New("core: unsupported aggregate filter (need table.g = u.g)")
	}
	switch {
	case lRef.Base == a.Table && rRef.Base == "u" && lRef.Field == rRef.Field:
		spec.GroupField = lRef.Field
	case rRef.Base == a.Table && lRef.Base == "u" && lRef.Field == rRef.Field:
		spec.GroupField = rRef.Field
	default:
		return nil, errors.New("core: unsupported aggregate filter (need table.g = u.g on the same field)")
	}
	if a.Window != nil {
		anchor, ok := a.Window.Anchor.(*constraint.Ref)
		if !ok || anchor.Base != "u" {
			return nil, errors.New("core: window anchor must be an update field")
		}
		spec.Window = a.Window.Dur
	}
	return spec, nil
}

// EncryptedUpdate is the ciphertext-side update the producer sends: the
// grouping field(s) in plaintext (routing metadata), every regulated
// numeric field encrypted.
type EncryptedUpdate struct {
	ID       string
	Producer string
	// Group is the routing value for single-constraint managers (the value
	// of the spec's GroupField).
	Group string
	// Groups optionally routes per grouping field when constraints group
	// by different fields; absent fields fall back to Group.
	Groups map[string]string
	TS     time.Time
	Enc    map[string]*he.Ciphertext
}

// groupValue resolves the routing value for one constraint.
func (u *EncryptedUpdate) groupValue(field string) string {
	if v, ok := u.Groups[field]; ok {
		return v
	}
	return u.Group
}

// NewEncryptedManager builds the RC1 engine with a single constraint.
func NewEncryptedManager(name string, pk *he.PublicKey, oracle mpc.SignOracle, spec *BoundSpec) (*EncryptedManager, error) {
	if spec == nil {
		return nil, errors.New("core: encrypted manager needs a spec")
	}
	return NewEncryptedManagerMulti(name, pk, oracle, []*BoundSpec{spec})
}

// NewEncryptedManagerMulti builds the RC1 engine enforcing several bound
// constraints; an update is incorporated only if it satisfies every one.
func NewEncryptedManagerMulti(name string, pk *he.PublicKey, oracle mpc.SignOracle, specs []*BoundSpec) (*EncryptedManager, error) {
	if pk == nil || oracle == nil || len(specs) == 0 {
		return nil, errors.New("core: encrypted manager needs key, oracle and at least one spec")
	}
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if s == nil || s.Name == "" {
			return nil, errors.New("core: bound specs need names")
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("core: duplicate bound spec %q", s.Name)
		}
		seen[s.Name] = true
	}
	return &EncryptedManager{
		name:   name,
		pk:     pk,
		oracle: oracle,
		specs:  append([]*BoundSpec(nil), specs...),
		ledger: ledger.New(),
		groups: make(map[string][]aggEntry),
	}, nil
}

// Ledger exposes the integrity layer.
func (m *EncryptedManager) Ledger() *ledger.Ledger { return m.ledger }

// Stats reports the engine's submission counters.
func (m *EncryptedManager) Stats() Stats { return m.stats.snapshot() }

// SubmitEncrypted verifies a ciphertext update against every registered
// bound and applies it only when all pass.
func (m *EncryptedManager) SubmitEncrypted(u EncryptedUpdate) (r Receipt, err error) {
	start := time.Now()
	defer func() { m.stats.record(start, r, err) }()
	for field, ct := range u.Enc {
		if verr := m.pk.Valid(ct); verr != nil {
			return Receipt{}, fmt.Errorf("core: update %q field %q: %w", u.ID, field, verr)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	type pendingFold struct {
		groupKey     string
		contribution *he.Ciphertext
	}
	var folds []pendingFold
	for _, spec := range m.specs {
		pass, contribution, groupKey, cerr := m.checkSpecLocked(spec, &u)
		if cerr != nil {
			return Receipt{}, cerr
		}
		if !pass {
			return Receipt{
				UpdateID: u.ID,
				Accepted: false,
				Violated: spec.Name,
				Reason:   fmt.Sprintf("encrypted bound %q not satisfied", spec.Name),
			}, nil
		}
		if contribution != nil {
			folds = append(folds, pendingFold{groupKey: groupKey, contribution: contribution})
		}
	}
	// Apply: fold every constraint's contribution into its group state and
	// anchor the ciphertexts in the ledger.
	for _, f := range folds {
		m.groups[f.groupKey] = append(m.groups[f.groupKey], aggEntry{ts: u.TS, ct: f.contribution.Clone()})
	}
	payload := encodeEncrypted(u)
	rcpt, err := m.ledger.Put("enc/"+u.Group+"/"+u.ID, payload, u.Producer, u.ID)
	if err != nil {
		return Receipt{}, fmt.Errorf("core: ledger: %w", err)
	}
	return Receipt{UpdateID: u.ID, Accepted: true, LedgerSeq: rcpt.Seq}, nil
}

// SubmitEncryptedBatch is the default (sequential) batch path: the
// masked-comparison protocol interposes the sign oracle on every check
// against windowed aggregate state, so verification cannot be reordered
// or overlapped without changing what the oracle learns. Receipts come
// back in input order.
func (m *EncryptedManager) SubmitEncryptedBatch(us []EncryptedUpdate) ([]Receipt, error) {
	return SubmitSequential(m.SubmitEncrypted, us)
}

// checkSpecLocked evaluates one bound against the update: it assembles
// the coefficient-scaled ciphertext list (windowed aggregate history +
// update terms), asks the oracle, and returns the update's own aggregate
// contribution for folding on accept.
func (m *EncryptedManager) checkSpecLocked(spec *BoundSpec, u *EncryptedUpdate) (pass bool, contribution *he.Ciphertext, groupKey string, err error) {
	var inputs []*he.Ciphertext
	scale := func(ct *he.Ciphertext, coeff int64) error {
		switch coeff {
		case 0:
		case 1:
			inputs = append(inputs, ct)
		default:
			scaled, serr := m.pk.MulPlain(ct, big.NewInt(coeff))
			if serr != nil {
				return serr
			}
			inputs = append(inputs, scaled)
		}
		return nil
	}
	// Aggregate history term.
	if spec.Agg != nil {
		groupKey = spec.Name + "/" + u.groupValue(spec.Agg.GroupField)
		entries := m.groups[groupKey]
		var lo time.Time
		if spec.Agg.Window > 0 {
			lo = u.TS.Add(-spec.Agg.Window)
			entries = pruneBefore(entries, lo)
			m.groups[groupKey] = entries
		}
		for _, e := range entries {
			if spec.Agg.Window > 0 && (e.ts.Before(lo) || e.ts.After(u.TS)) {
				continue
			}
			if err := scale(e.ct, spec.Agg.Coeff); err != nil {
				return false, nil, "", err
			}
		}
		// This update's own contribution to the aggregate.
		if spec.Agg.Column == "" {
			// COUNT: the manager encrypts the public constant 1 itself.
			one, eerr := m.pk.EncryptInt(1, nil)
			if eerr != nil {
				return false, nil, "", eerr
			}
			contribution = one
		} else {
			ct, ok := u.Enc[spec.Agg.Column]
			if !ok {
				return false, nil, "", fmt.Errorf("core: update lacks encrypted field %q", spec.Agg.Column)
			}
			contribution = ct
		}
	}
	// Update-field terms. A field that is both the aggregate column and an
	// update term appears once per role, as in the plaintext semantics
	// (the new row is not yet in the table when the constraint runs).
	for field, coeff := range spec.UpdateTerms {
		ct, ok := u.Enc[field]
		if !ok {
			return false, nil, "", fmt.Errorf("core: update lacks encrypted field %q", field)
		}
		if err := scale(ct, coeff); err != nil {
			return false, nil, "", err
		}
	}
	// Effective bound folds the constant term.
	check := mpc.CheckBound
	if !spec.Upper {
		check = mpc.CheckFloor
	}
	ok, err := check(m.pk, m.oracle, inputs, spec.Bound-spec.Const)
	if err != nil {
		return false, nil, "", fmt.Errorf("core: bound check %q: %w", spec.Name, err)
	}
	return ok, contribution, groupKey, nil
}

func pruneBefore(entries []aggEntry, lo time.Time) []aggEntry {
	keep := entries[:0]
	for _, e := range entries {
		if !e.ts.Before(lo) {
			keep = append(keep, e)
		}
	}
	return keep
}

// encodeEncrypted serializes the ciphertexts for the journal.
func encodeEncrypted(u EncryptedUpdate) []byte {
	out := []byte(u.TS.UTC().Format(time.RFC3339Nano))
	for field, ct := range u.Enc {
		out = append(out, 0)
		out = append(out, []byte(field)...)
		out = append(out, 0)
		out = append(out, ct.C.Bytes()...)
	}
	return out
}
