package token

import (
	"testing"

	"prever/internal/wal"
)

var _ wal.Snapshotter = (*MemorySpentStore)(nil)

func TestSpentStoreSnapshotRoundTrip(t *testing.T) {
	s := NewMemorySpentStore()
	for _, serial := range []string{"s1", "s2", "s3"} {
		if already, err := s.MarkSpent(serial); err != nil || already {
			t.Fatalf("MarkSpent(%s) = %v, %v", serial, already, err)
		}
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r := NewMemorySpentStore()
	if err := r.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if n := len(r.spent); n != 3 {
		t.Fatalf("restored %d serials, want 3", n)
	}
	// Double-spend protection survives the round trip.
	if already, err := r.MarkSpent("s2"); err != nil || !already {
		t.Fatalf("restored store forgot serial s2 (already=%v, err=%v)", already, err)
	}
	if already, _ := r.MarkSpent("s9"); already {
		t.Fatal("restored store invented serial s9")
	}
}

func TestSpentStoreRestoreRejectsGarbage(t *testing.T) {
	s := NewMemorySpentStore()
	if _, err := s.MarkSpent("keep"); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore([]byte(`{"format":"wrong"}`)); err == nil {
		t.Fatal("Restore accepted wrong format")
	}
	if err := s.Restore([]byte(`garbage`)); err == nil {
		t.Fatal("Restore accepted garbage")
	}
	if already, _ := s.MarkSpent("keep"); !already {
		t.Fatal("failed restore wiped the store")
	}
}
