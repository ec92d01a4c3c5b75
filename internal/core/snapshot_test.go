package core

import (
	"encoding/json"
	"math/big"
	"strings"
	"testing"

	"prever/internal/commit"
	"prever/internal/group"
	"prever/internal/wal"
)

var _ wal.Snapshotter = (*ZKBoundManager)(nil)

// TestZKBoundSnapshotRoundTrip: a manager restored from a snapshot holds
// the same per-group running commitments, so the owner's NEXT chained
// proof (produced against the pre-crash total) still verifies.
func TestZKBoundSnapshotRoundTrip(t *testing.T) {
	params := commit.NewParams(group.TestGroup())
	m, err := NewZKBoundManager("zk-snap", params, 40)
	if err != nil {
		t.Fatal(err)
	}
	owner := NewZKOwner(params, "zk-snap", 40)
	for i := 0; i < 3; i++ {
		u, err := owner.ProduceUpdate([]string{"t0", "t1", "t2"}[i], "w1", "g1", 8)
		if err != nil {
			t.Fatal(err)
		}
		if r, err := m.SubmitZK(u); err != nil || !r.Accepted {
			t.Fatalf("update %d: %v %+v", i, err, r)
		}
	}
	blob, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var head struct{ Format string }
	if err := json.Unmarshal(blob, &head); err != nil || head.Format != "prever/core/zkbound/v2" {
		t.Fatalf("snapshot format %q (%v), want prever/core/zkbound/v2", head.Format, err)
	}

	m2, err := NewZKBoundManager("zk-snap", params, 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if !running(m2, "g1").Equal(running(m, "g1")) {
		t.Fatal("restored running commitment differs")
	}
	// The proof chain continues against the restored fold.
	u, err := owner.ProduceUpdate("t3", "w1", "g1", 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m2.SubmitZK(u)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Accepted {
		t.Fatalf("post-restore chained update rejected: %s", r.Reason)
	}
}

func TestZKBoundRestoreRejectsBadElement(t *testing.T) {
	params := commit.NewParams(group.TestGroup())
	m, err := NewZKBoundManager("zk-snap", params, 40)
	if err != nil {
		t.Fatal(err)
	}
	// An element outside the group must be rejected whole. P-1 is the
	// other encoding of 1, outside [1, Q].
	nonMember := new(big.Int).Sub(params.Group.P, big.NewInt(1))
	bad, err := json.Marshal(map[string]any{
		"format":  "prever/core/zkbound/v2",
		"running": map[string][]byte{"g1": nonMember.Bytes()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(bad); err == nil {
		t.Fatal("Restore accepted an out-of-group element")
	}
	if err := m.Restore([]byte(`{"format":"nope"}`)); err == nil {
		t.Fatal("Restore accepted an unknown format")
	}
}

// snapshotWithUpdates returns a manager holding accepted updates for
// groups g1 and g2, the owner that made them, and its snapshot.
func snapshotWithUpdates(t *testing.T, params *commit.Params) (*ZKBoundManager, *ZKOwner, []byte) {
	t.Helper()
	m, err := NewZKBoundManager("zk-snap", params, 40)
	if err != nil {
		t.Fatal(err)
	}
	owner := NewZKOwner(params, "zk-snap", 40)
	for i, g := range []string{"g1", "g2", "g1"} {
		u, err := owner.ProduceUpdate([]string{"t0", "t1", "t2"}[i], "w1", g, 5)
		if err != nil {
			t.Fatal(err)
		}
		if r, err := m.SubmitZK(u); err != nil || !r.Accepted {
			t.Fatalf("update %d: %v %+v", i, err, r)
		}
	}
	blob, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return m, owner, blob
}

// checkRefusedWhole: Restore(blob) fails with an error containing want,
// and m still holds before's running commitments and accepts the owner's
// next chained update for g1.
func checkRefusedWhole(t *testing.T, m *ZKBoundManager, owner *ZKOwner, blob []byte, want string, before map[string]commit.Commitment) {
	t.Helper()
	err := m.Restore(blob)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Restore = %v, want an error containing %q", err, want)
	}
	for g, c := range before {
		if !running(m, g).Equal(c) {
			t.Fatalf("a refused Restore changed group %s's running commitment", g)
		}
	}
	u, err := owner.ProduceUpdate("t-next", "w1", "g1", 5)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := m.SubmitZK(u); err != nil || !r.Accepted {
		t.Fatalf("chained update after a refused Restore: %v %+v", err, r)
	}
}

// TestZKBoundRestoreRefusesV1: a v1 blob stored quadratic residues; it is
// refused whole, by its format, even when every element would pass.
func TestZKBoundRestoreRefusesV1(t *testing.T) {
	params := commit.NewParams(group.TestGroup())
	m, owner, blob := snapshotWithUpdates(t, params)
	var snap map[string]any
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	snap["format"] = "prever/core/zkbound/v1"
	v1, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]commit.Commitment{"g1": running(m, "g1"), "g2": running(m, "g2")}
	checkRefusedWhole(t, m, owner, v1, `"prever/core/zkbound/v1"`, before)
}

// TestZKBoundRestoreRefusesOtherEncoding: a v2 blob holding P − c for one
// group's running commitment c — the same element, the encoding the
// group does not use — is refused whole: the other group's valid
// commitment is not restored either.
func TestZKBoundRestoreRefusesOtherEncoding(t *testing.T) {
	params := commit.NewParams(group.TestGroup())
	m, owner, blob := snapshotWithUpdates(t, params)
	var snap struct {
		Format  string            `json:"format"`
		Running map[string][]byte `json:"running"`
	}
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	c := new(big.Int).SetBytes(snap.Running["g2"])
	snap.Running["g2"] = new(big.Int).Sub(params.Group.P, c).Bytes()
	bad, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewZKBoundManager("zk-snap", params, 40)
	if err != nil {
		t.Fatal(err)
	}
	empty := running(fresh, "g1")
	if err := fresh.Restore(bad); err == nil {
		t.Fatal("Restore accepted P - c")
	}
	if !running(fresh, "g1").Equal(empty) || !running(fresh, "g2").Equal(empty) {
		t.Fatal("a refused Restore changed a fresh manager's state")
	}
	before := map[string]commit.Commitment{"g1": running(m, "g1"), "g2": running(m, "g2")}
	checkRefusedWhole(t, m, owner, bad, `"g2"`, before)
}

// running returns a group's running commitment (the identity commitment
// for an unseen group).
func running(m *ZKBoundManager, group string) commit.Commitment {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.runningLocked(group)
}
