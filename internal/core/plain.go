package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"prever/internal/constraint"
	"prever/internal/ledger"
	"prever/internal/store"
)

// PlainManager is the non-private baseline: a trusted data manager that
// sees everything. It evaluates constraints in plaintext, applies accepted
// updates to its tables, and anchors every accepted update in a
// centralized ledger so stored-data integrity is still verifiable
// (Research Challenge 4 applies even without privacy).
//
// The paper's evaluation methodology (§6) is to compare every
// privacy-preserving instantiation against this baseline on standard
// workloads; experiments E1 and E2 do exactly that.
// Concurrency: verification only reads, so Submit evaluates constraints
// under a shared (read) lock — concurrent callers verify in parallel —
// while incorporation relies on the table's and ledger's own short
// internal critical sections. Updates of the SAME producer must not race
// (per-producer constraints read state the previous update wrote): a
// caller submits one producer's updates in order, from one goroutine.
// Callers that concurrently Submit for one producer get per-row
// consistency but may over-admit against per-producer bounds.
type PlainManager struct {
	name  string
	stats statsRecorder

	mu          sync.RWMutex
	tables      map[string]*store.Table
	constraints []*Constraint
	ledger      *ledger.Ledger
}

// NewPlainManager creates a baseline manager with the given tables.
func NewPlainManager(name string, tables map[string]*store.Table) *PlainManager {
	if tables == nil {
		tables = make(map[string]*store.Table)
	}
	return &PlainManager{
		name:   name,
		tables: tables,
		ledger: ledger.New(),
	}
}

// AddTable registers a table.
func (m *PlainManager) AddTable(t *store.Table) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tables[t.Name] = t
}

// AddConstraint registers a constraint (Figure 2 step 0).
func (m *PlainManager) AddConstraint(c *Constraint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.constraints = append(m.constraints, c)
}

// Ledger exposes the integrity layer for audits.
func (m *PlainManager) Ledger() *ledger.Ledger { return m.ledger }

// Stats reports the engine's submission counters.
func (m *PlainManager) Stats() Stats { return m.stats.snapshot() }

// Submit runs Figure 2 for one update: verify (step 2), apply (step 3),
// anchor. A rejected update returns a Receipt with Accepted == false and
// a nil error; errors are reserved for operational failures.
func (m *PlainManager) Submit(u Update) (r Receipt, err error) {
	start := time.Now()
	defer func() { m.stats.record(start, r, err) }()
	tbl, reject, err := m.verify(u)
	if err != nil {
		return Receipt{}, err
	}
	if reject != nil {
		return *reject, nil
	}
	return m.incorporate(u, tbl)
}

// verify is Figure 2 step 2 under a read lock: constraint evaluation only
// reads, so concurrent callers verify in parallel. A nil reject means pass.
func (m *PlainManager) verify(u Update) (tbl *store.Table, reject *Receipt, err error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	tbl, ok := m.tables[u.Table]
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown table %q", u.Table)
	}
	env := &constraint.Env{
		UpdateName: "u",
		Update:     u.Row,
		Tables:     m.tables,
	}
	for _, c := range m.constraints {
		pass, err := constraint.EvalBool(c.Expr, env)
		if err != nil {
			return nil, nil, fmt.Errorf("core: constraint %q: %w", c.Name, err)
		}
		if !pass {
			return nil, &Receipt{
				UpdateID: u.ID,
				Accepted: false,
				Violated: c.Name,
				Reason:   fmt.Sprintf("constraint %q (%s, %s) not satisfied", c.Name, c.Scope, c.Privacy),
			}, nil
		}
	}
	return tbl, nil, nil
}

// incorporate is Figure 2 step 3 plus the integrity anchor. Table and
// ledger are internally synchronized, so the critical sections are short
// and incorporation never blocks other callers' verification.
func (m *PlainManager) incorporate(u Update, tbl *store.Table) (Receipt, error) {
	if err := tbl.Upsert(u.Key, u.Row); err != nil {
		return Receipt{}, fmt.Errorf("core: apply: %w", err)
	}
	payload, err := json.Marshal(rowJSON(u.Row))
	if err != nil {
		return Receipt{}, fmt.Errorf("core: encode update: %w", err)
	}
	rcpt, err := m.ledger.Put(u.Table+"/"+u.Key, payload, u.Producer, u.ID)
	if err != nil {
		return Receipt{}, fmt.Errorf("core: ledger: %w", err)
	}
	return Receipt{UpdateID: u.ID, Accepted: true, LedgerSeq: rcpt.Seq}, nil
}

// rowJSON renders a row into a JSON-friendly map (store.Value is a tagged
// union; render per kind for a stable, readable journal).
func rowJSON(r store.Row) map[string]any {
	out := make(map[string]any, len(r))
	for k, v := range r {
		switch v.Kind {
		case store.KindInt:
			out[k] = v.I
		case store.KindFloat:
			out[k] = v.F
		case store.KindString:
			out[k] = v.S
		case store.KindBool:
			out[k] = v.B
		case store.KindTime:
			out[k] = v.T
		default:
			out[k] = nil
		}
	}
	return out
}
