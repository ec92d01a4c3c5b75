package core

import (
	"fmt"
	"testing"
	"time"
)

func queryFixture(t *testing.T) *PlainManager {
	t.Helper()
	m := newPlain(t)
	workers := []string{"w1", "w2", "w1", "w3", "w1"}
	for i, w := range workers {
		r, err := m.Submit(taskUpdate(fmt.Sprintf("t%d", i), w, int64(2*(i+1)), tBase().Add(time.Duration(i)*time.Hour)))
		if err != nil || !r.Accepted {
			t.Fatalf("fixture submit %d: %+v %v", i, r, err)
		}
	}
	return m
}

func TestQueryBasicFilter(t *testing.T) {
	m := queryFixture(t)
	rows, err := m.Query("tasks", "r.worker = 'w1'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("matched %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Row["worker"].S != "w1" {
			t.Fatalf("non-matching row %+v", r)
		}
	}
}

func TestQueryNumericAndCompound(t *testing.T) {
	m := queryFixture(t)
	rows, err := m.Query("tasks", "r.hours > 4 AND r.worker != 'w1'")
	if err != nil {
		t.Fatal(err)
	}
	// hours: t1=4(w2), t3=8(w3) → only t3 has hours>4 among non-w1.
	if len(rows) != 1 || rows[0].Key != "t3" {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestQueryWithAggregateSubexpression(t *testing.T) {
	m := queryFixture(t)
	// Rows whose hours exceed the table average.
	rows, err := m.Query("tasks", "r.hours > AVG(tasks.hours)")
	if err != nil {
		t.Fatal(err)
	}
	// hours are 2,4,6,8,10 → avg 6 → 8 and 10 qualify.
	if len(rows) != 2 {
		t.Fatalf("matched %d rows, want 2", len(rows))
	}
}

func TestQueryErrors(t *testing.T) {
	m := queryFixture(t)
	if _, err := m.Query("tasks", "r.hours <="); err == nil {
		t.Fatal("bad filter parsed")
	}
	if _, err := m.Query("ghost", "TRUE"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := m.Query("tasks", "r.nonexistent = 1"); err == nil {
		t.Fatal("unknown column evaluated")
	}
	if _, err := m.Query("tasks", "r.hours + 1"); err == nil {
		t.Fatal("non-boolean filter accepted")
	}
}

func TestQueryKeyOrder(t *testing.T) {
	m := queryFixture(t)
	rows, _ := m.Query("tasks", "TRUE")
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Key >= rows[i].Key {
			t.Fatal("results not in key order")
		}
	}
}
