package store

import (
	"fmt"
	"slices"
	"sync"
)

// Column describes one typed column of a table schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of typed columns.
type Schema struct {
	Columns []Column
	byName  map[string]int
}

// NewSchema builds a schema, validating that column names are unique and
// non-empty.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("store: column %d has empty name", i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("store: duplicate column %q", c.Name)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for package-level fixtures.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate checks a row against the schema: every column present with a
// matching kind (NULL is allowed in any column).
func (s *Schema) Validate(row Row) error {
	for _, c := range s.Columns {
		v, ok := row[c.Name]
		if !ok {
			return fmt.Errorf("store: row missing column %q", c.Name)
		}
		if v.Kind != KindNull && v.Kind != c.Kind {
			return fmt.Errorf("store: column %q expects %s, got %s", c.Name, c.Kind, v.Kind)
		}
	}
	for name := range row {
		if _, ok := s.byName[name]; !ok {
			return fmt.Errorf("store: row has unknown column %q", name)
		}
	}
	return nil
}

// Row maps column names to values.
type Row map[string]Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// Table is a schema-checked, primary-keyed collection of rows: each key's
// latest row, as a chain peer's world state keeps latest values (DESIGN
// §2e). Tables serve the constraint engine's scans and the framework's
// apply step. An equality probe (ScanEq, DESIGN §2f) of a String or Int
// column builds that column's index on first use: value -> the keys
// holding it, sorted. Upsert maintains every built index after that. NULL
// cells are never indexed.
type Table struct {
	Name   string
	Schema *Schema

	mu      sync.RWMutex
	rows    map[string]Row                // primary key -> latest row
	indexes map[string]map[Value][]string // column -> value -> sorted keys
	// sorted is every key of rows in order, built by the Scan that finds
	// it nil and dropped (never written) when Upsert adds a key, so a
	// scan in progress keeps the slice it took.
	sorted []string
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema *Schema) *Table {
	return &Table{
		Name:    name,
		Schema:  schema,
		rows:    make(map[string]Row),
		indexes: make(map[string]map[Value][]string),
	}
}

// Upsert inserts or replaces the row under key after schema validation.
func (t *Table) Upsert(key string, row Row) error {
	if err := t.Schema.Validate(row); err != nil {
		return err
	}
	cp := row.Clone()
	t.mu.Lock()
	defer t.mu.Unlock()
	old, existed := t.rows[key]
	if !existed {
		t.sorted = nil
	}
	t.rows[key] = cp
	for col, idx := range t.indexes {
		was, wasOK := indexKey(old[col])
		now, nowOK := indexKey(cp[col])
		if wasOK == nowOK && was == now {
			continue
		}
		if wasOK {
			keys := idx[was]
			i, _ := slices.BinarySearch(keys, key)
			if keys = slices.Delete(keys, i, i+1); len(keys) == 0 {
				delete(idx, was)
			} else {
				idx[was] = keys
			}
		}
		if nowOK {
			i, _ := slices.BinarySearch(idx[now], key)
			idx[now] = slices.Insert(idx[now], i, key)
		}
	}
	return nil
}

// indexKey is the index entry of a cell: the cell itself, rebuilt from
// its kind's field so equal cells are equal map keys, for String and Int
// cells; nothing for any other kind.
func indexKey(v Value) (Value, bool) {
	switch v.Kind {
	case KindString:
		return String_(v.S), true
	case KindInt:
		return Int(v.I), true
	}
	return Value{}, false
}

// Scan calls fn for every row in primary-key order, stopping early if fn
// returns false. The keys and rows are taken under the table's lock; fn
// runs without it, so it may read the table again. Upsert replaces a row
// and never changes one in place, so each row is as it was when the scan
// began; fn must not modify it.
func (t *Table) Scan(fn func(key string, row Row) bool) {
	t.mu.RLock()
	if t.sorted != nil {
		t.visitLocked(t.sorted, t.mu.RUnlock, fn)
		return
	}
	t.mu.RUnlock()
	t.mu.Lock()
	if t.sorted == nil {
		t.sorted = make([]string, 0, len(t.rows))
		for k := range t.rows {
			t.sorted = append(t.sorted, k)
		}
		slices.Sort(t.sorted)
	}
	t.visitLocked(t.sorted, t.mu.Unlock, fn)
}

// ScanEq is Scan over a superset of the rows whose column col equals v
// (in Value.Equal's sense), in primary-key order: exactly those rows when
// col is a String or Int column and v is of that kind, every row
// otherwise. Callers re-check their own predicate on each row.
func (t *Table) ScanEq(col string, v Value, fn func(key string, row Row) bool) {
	i, ok := t.Schema.byName[col]
	key, keyOK := indexKey(v)
	if !ok || !keyOK || t.Schema.Columns[i].Kind != v.Kind {
		t.Scan(fn)
		return
	}
	t.mu.RLock()
	if t.indexes[col] == nil {
		t.mu.RUnlock()
		t.buildIndex(col)
		t.mu.RLock()
	}
	t.visitLocked(slices.Clone(t.indexes[col][key]), t.mu.RUnlock, fn)
}

// buildIndex indexes every row's cell of col.
func (t *Table) buildIndex(col string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.indexes[col] != nil {
		return
	}
	idx := make(map[Value][]string)
	for k, row := range t.rows {
		if v, ok := indexKey(row[col]); ok {
			idx[v] = append(idx[v], k)
		}
	}
	for _, keys := range idx {
		slices.Sort(keys)
	}
	t.indexes[col] = idx
}

// visitLocked takes the rows under keys (a slice no one writes to),
// releases the lock the caller holds with unlock, and then calls fn on
// each.
func (t *Table) visitLocked(keys []string, unlock func(), fn func(key string, row Row) bool) {
	rows := make([]Row, len(keys))
	for i, k := range keys {
		rows[i] = t.rows[k]
	}
	unlock()
	for i, k := range keys {
		if !fn(k, rows[i]) {
			return
		}
	}
}
