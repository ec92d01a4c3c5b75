package core

import (
	"fmt"
	"math/big"
	"testing"

	"prever/internal/commit"
	"prever/internal/group"
)

func newZKBatchFixture(t *testing.T, bound int64) (*ZKBoundManager, *ZKOwner) {
	t.Helper()
	params := commit.NewParams(group.TestGroup())
	m, err := NewZKBoundManager("zk-batch", params, bound)
	if err != nil {
		t.Fatal(err)
	}
	return m, NewZKOwner(params, "zk-batch", bound)
}

func produceZK(t *testing.T, owner *ZKOwner, grp string, n int, value int64) []ZKUpdate {
	t.Helper()
	us := make([]ZKUpdate, n)
	for i := range us {
		u, err := owner.ProduceUpdate(fmt.Sprintf("%s-u%d", grp, i), grp, grp, value)
		if err != nil {
			t.Fatal(err)
		}
		us[i] = u
	}
	return us
}

// TestSubmitZKBatchAmortized: a batch of valid proofs takes the
// amortized path — one folded verification per group — and the stats
// counter records every update verified that way.
func TestSubmitZKBatchAmortized(t *testing.T) {
	m, owner := newZKBatchFixture(t, 1000)
	var us []ZKUpdate
	for g := 0; g < 3; g++ {
		us = append(us, produceZK(t, owner, fmt.Sprintf("g%d", g), 4, 7)...)
	}
	rs, err := m.SubmitZKBatch(us)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.UpdateID != us[i].ID || !r.Accepted {
			t.Fatalf("receipt %d = %+v, want accepted %q", i, r, us[i].ID)
		}
	}
	s := m.Stats()
	if s.Submitted != 12 || s.Accepted != 12 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BatchVerified != 12 {
		t.Fatalf("BatchVerified = %d, want 12 (all groups on the amortized path)", s.BatchVerified)
	}
	// A later batch chains on the advanced fold.
	more := produceZK(t, owner, "g0", 2, 5)
	rs, err = m.SubmitZKBatch(more)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if !r.Accepted {
			t.Fatalf("chained receipt %d rejected: %s", i, r.Reason)
		}
	}
	if got := m.Stats().BatchVerified; got != 14 {
		t.Fatalf("BatchVerified = %d after chained batch, want 14", got)
	}
}

// TestSubmitZKBatchBadProofFallsBack: one corrupted proof sends the
// whole group through the sequential fallback, whose semantics the
// amortized path must match: the bad update is rejected, and every
// later update in the group — whose proof chains on the rejected fold —
// is rejected too. Nothing from the fallback counts as batch-verified.
func TestSubmitZKBatchBadProofFallsBack(t *testing.T) {
	m, owner := newZKBatchFixture(t, 1000)
	us := produceZK(t, owner, "g0", 5, 7)
	const bad = 2
	us[bad].Proof.Low.BitProofs[0].Z0 = big.NewInt(1)
	rs, err := m.SubmitZKBatch(us)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		want := i < bad
		if r.Accepted != want {
			t.Fatalf("receipt %d accepted = %v, want %v (%s)", i, r.Accepted, want, r.Reason)
		}
	}
	s := m.Stats()
	if s.Submitted != 5 || s.Accepted != int64(bad) || s.Rejected != int64(5-bad) {
		t.Fatalf("stats = %+v", s)
	}
	if s.BatchVerified != 0 {
		t.Fatalf("BatchVerified = %d on the fallback path, want 0", s.BatchVerified)
	}
}

// TestSubmitZKBatchMalformedUpdateFallsBack: a structurally malformed
// update (no commitment) is an operational error on the sequential
// path; the batch must surface the same error while still processing
// the valid updates.
func TestSubmitZKBatchMalformedUpdateFallsBack(t *testing.T) {
	m, owner := newZKBatchFixture(t, 1000)
	us := produceZK(t, owner, "g0", 3, 7)
	us[1].C.C = nil
	rs, err := m.SubmitZKBatch(us)
	if err == nil {
		t.Fatal("nil-commitment update did not raise an operational error")
	}
	if !rs[0].Accepted {
		t.Fatalf("receipt 0 rejected: %s", rs[0].Reason)
	}
	if rs[1].Accepted {
		t.Fatal("nil-commitment update accepted")
	}
}

// TestSubmitGroupedOrdering: the generic group-batch fan-out returns
// receipts in input order even though groups run concurrently, and
// hands each group its subsequence in submission order.
func TestSubmitGroupedOrdering(t *testing.T) {
	type u struct{ key, id string }
	var us []u
	for i := 0; i < 4; i++ {
		for g := 0; g < 3; g++ {
			us = append(us, u{key: fmt.Sprintf("g%d", g), id: fmt.Sprintf("g%d-%d", g, i)})
		}
	}
	rs, err := SubmitGrouped(func(group []u) ([]Receipt, error) {
		rs := make([]Receipt, len(group))
		for i, x := range group {
			if i > 0 && group[i-1].id >= x.id {
				return nil, fmt.Errorf("group %s out of order: %s before %s", x.key, group[i-1].id, x.id)
			}
			rs[i] = Receipt{UpdateID: x.id, Accepted: true}
		}
		return rs, nil
	}, func(x u) string { return x.key }, us)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.UpdateID != us[i].id {
			t.Fatalf("receipt %d = %q, want %q", i, r.UpdateID, us[i].id)
		}
	}
}

// TestSubmitGroupedPropagatesError: a failing group's operational error
// surfaces; other groups still return their receipts.
func TestSubmitGroupedPropagatesError(t *testing.T) {
	type u struct{ key, id string }
	us := []u{{"a", "a1"}, {"b", "b1"}, {"a", "a2"}}
	rs, err := SubmitGrouped(func(group []u) ([]Receipt, error) {
		if group[0].key == "b" {
			return make([]Receipt, len(group)), fmt.Errorf("group b failed")
		}
		rs := make([]Receipt, len(group))
		for i, x := range group {
			rs[i] = Receipt{UpdateID: x.id, Accepted: true}
		}
		return rs, nil
	}, func(x u) string { return x.key }, us)
	if err == nil {
		t.Fatal("group error not propagated")
	}
	if !rs[0].Accepted || !rs[2].Accepted {
		t.Fatalf("healthy group's receipts lost: %+v", rs)
	}
}
