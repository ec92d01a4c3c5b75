package core

import (
	"fmt"

	"prever/internal/constraint"
	"prever/internal/store"
)

// The paper scopes PReVer to updates ("we focus on updates as
// privacy-preserving queries have been extensively studied"), but data
// managers still must "respond to queries" (§3.1). Query gives the plain
// manager a constraint-language query facility so applications do not need
// a second expression language: the filter is an ordinary constraint
// expression where `r` binds to each candidate row.
//
// Privacy-preserving query paths exist in their own engines: PIR lookups
// on PublicPIRManager, and ciphertext reads on the encrypted ledger.

// QueryResult is one matching row.
type QueryResult struct {
	Key string
	Row store.Row
}

// Query evaluates a filter expression over a table and returns matching
// rows in key order. The filter uses `r.<column>` to reference the row
// under test, e.g. `r.hours > 8 AND r.worker != 'w1'`. Aggregates over
// other tables are allowed (they see the manager's current state).
//
//lint:ignore unreached the facade's documented read path (ExamplePlainManager_Query); which facade methods stay is ROADMAP item 2b
func (m *PlainManager) Query(table, filterSource string) ([]QueryResult, error) {
	filter, err := constraint.Parse(filterSource)
	if err != nil {
		return nil, fmt.Errorf("core: query filter: %w", err)
	}
	m.mu.Lock()
	tbl, ok := m.tables[table]
	tables := m.tables
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown table %q", table)
	}
	var out []QueryResult
	var evalErr error
	tbl.Scan(func(key string, row store.Row) bool {
		env := &constraint.Env{
			UpdateName: "r",
			Update:     row,
			Tables:     tables,
		}
		keep, err := constraint.EvalBool(filter, env)
		if err != nil {
			evalErr = err
			return false
		}
		if keep {
			out = append(out, QueryResult{Key: key, Row: row.Clone()})
		}
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}
