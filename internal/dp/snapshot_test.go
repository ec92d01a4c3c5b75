package dp

import (
	"testing"

	"prever/internal/wal"
)

var _ wal.Snapshotter = (*Accountant)(nil)

func TestAccountantSnapshotRoundTrip(t *testing.T) {
	a, err := NewAccountant(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.75); err != nil {
		t.Fatal(err)
	}
	blob, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewAccountant(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if got := b.spent; got != 0.75 {
		t.Fatalf("restored spent = %v, want 0.75", got)
	}
	if got := (b.total - b.spent); got != 1.25 {
		t.Fatalf("restored remaining = %v, want 1.25", got)
	}
	// The restored budget keeps enforcing: overspending still fails.
	if err := b.Spend(1.5); err == nil {
		t.Fatal("restored accountant allowed overspend")
	}
}

func TestAccountantRestoreRejectsInvalid(t *testing.T) {
	a, _ := NewAccountant(1.0)
	for _, bad := range []string{
		`not json`,
		`{"format":"wrong","total":1,"spent":0}`,
		`{"format":"prever/dp/accountant/v1","total":1,"spent":2}`,
		`{"format":"prever/dp/accountant/v1","total":-1,"spent":0}`,
	} {
		if err := a.Restore([]byte(bad)); err == nil {
			t.Fatalf("Restore(%q) accepted invalid snapshot", bad)
		}
	}
	// The failed restores left the original budget intact.
	if got := (a.total - a.spent); got != 1.0 {
		t.Fatalf("failed restore mutated the budget: remaining = %v", got)
	}
}
