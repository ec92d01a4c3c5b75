package core

import (
	"bytes"
	"fmt"
	"math/big"
	"reflect"
	"slices"
	"sync"
	"testing"

	"prever/internal/commit"
	"prever/internal/group"
	"prever/internal/zk"
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
// updates after it round the verify loop again, against the fold
// without it: the bad update is rejected, and every later update in the
// group — whose proof chains on the rejected fold — is rejected too.
// Only the updates before it count as batch-verified.
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
	if s.BatchVerified != bad {
		t.Fatalf("BatchVerified = %d, want %d (the updates before the bad one)", s.BatchVerified, bad)
	}
}

// requireSameZKState fails unless two managers hold the same running
// commitment for grp and the same ledger, entry for entry.
func requireSameZKState(t *testing.T, batch, seq *ZKBoundManager, grp string) {
	t.Helper()
	if !running(batch, grp).Equal(running(seq, grp)) {
		t.Fatal("running commitments differ")
	}
	eb, es := batch.Ledger().Export(), seq.Ledger().Export()
	if len(eb) != len(es) {
		t.Fatalf("ledger sizes differ: batch %d, sequential %d", len(eb), len(es))
	}
	for i := range eb {
		if eb[i].Key != es[i].Key || !bytes.Equal(eb[i].Value, es[i].Value) ||
			eb[i].Author != es[i].Author || eb[i].TxID != es[i].TxID {
			t.Fatalf("ledger entry %d differs: batch %+v, sequential %+v", i, eb[i], es[i])
		}
	}
}

// TestSubmitZKBatchKeepsProvedPrefix: a failed fold keeps what it
// proved. With the first, a middle or the last of a group of 8 forged,
// the batch path incorporates the k updates before the forgery from the
// fold's own per-proof verdicts (BatchVerified == k) and verifies again
// only the ones after it, and nothing observable tells it from a manager
// fed the same updates one SubmitZK at a time.
func TestSubmitZKBatchKeepsProvedPrefix(t *testing.T) {
	const n = 8
	for _, k := range []int{0, 3, n - 1} {
		t.Run(fmt.Sprintf("forged@%d", k), func(t *testing.T) {
			batch, owner := newZKBatchFixture(t, 1000)
			seq, _ := newZKBatchFixture(t, 1000)
			us := produceZK(t, owner, "g", n, 7)
			us[k].Proof = us[(k+1)%n].Proof // well formed, wrong statement
			rsBatch, err := batch.SubmitZKBatch(us)
			if err != nil {
				t.Fatal(err)
			}
			rsSeq, err := SubmitSequential(seq.SubmitZK, us)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rsBatch, rsSeq) {
				t.Fatalf("receipts differ:\nbatch      %+v\nsequential %+v", rsBatch, rsSeq)
			}
			for i, r := range rsBatch {
				if r.Accepted != (i < k) {
					t.Fatalf("receipt %d accepted = %v with update %d forged (%s)", i, r.Accepted, k, r.Reason)
				}
			}
			requireSameZKState(t, batch, seq, "g")
			sb, ss := batch.Stats(), seq.Stats()
			if sb.Submitted != ss.Submitted || sb.Accepted != ss.Accepted || sb.Rejected != ss.Rejected || sb.Errors != ss.Errors {
				t.Fatalf("stats differ: batch %+v, sequential %+v", sb, ss)
			}
			if sb.Latency.Count != n {
				t.Fatalf("batch recorded %d latencies, want %d", sb.Latency.Count, n)
			}
			if sb.BatchVerified != int64(k) || ss.BatchVerified != 0 {
				t.Fatalf("BatchVerified = %d (sequential %d), want %d (0)", sb.BatchVerified, ss.BatchVerified, k)
			}
		})
	}
}

// TestSubmitZKBatchMalformedUpdateFallsBack: a structurally malformed
// update (no commitment) is an operational error, as from a lone
// SubmitZK; the batch must surface that error while still processing
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

// TestZKLedgerReplaysFoldOrder: submissions racing one group anchor
// their updates in fold order. Four goroutines each submit the same
// chained updates of two groups, two one SubmitZK at a time and two as
// SubmitZKBatch chunks of three, so every update is accepted exactly
// once, by whichever submission finds the fold where its proof expects
// it. Each group's ledger entries must then replay combined_i =
// combined_{i−1} · C_i in ledger order, ending at the running
// commitment.
func TestZKLedgerReplaysFoldOrder(t *testing.T) {
	const n, workers, chunk = 12, 4, 3
	m, owner := newZKBatchFixture(t, 1000)
	groups := []string{"g0", "g1"}
	byID := make(map[string]ZKUpdate)
	var all []ZKUpdate // update i of every group, then update i+1
	perGroup := make([][]ZKUpdate, len(groups))
	for gi, grp := range groups {
		perGroup[gi] = produceZK(t, owner, grp, n, 7)
	}
	for i := 0; i < n; i++ {
		for gi := range groups {
			u := perGroup[gi][i]
			byID[u.ID] = u
			all = append(all, u)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(all))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(batched bool) {
			defer wg.Done()
			if !batched {
				for _, u := range all {
					if _, err := m.SubmitZK(u); err != nil {
						errs <- err
					}
				}
				return
			}
			for i := 0; i < len(all); i += chunk * len(groups) {
				if _, err := m.SubmitZKBatch(all[i:min(i+chunk*len(groups), len(all))]); err != nil {
					errs <- err
				}
			}
		}(w%2 == 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := m.Stats().Accepted; got != int64(len(all)) {
		t.Fatalf("accepted %d updates, want each of %d once", got, len(all))
	}
	fold := make(map[string]commit.Commitment)
	for _, e := range m.Ledger().Export() {
		u, ok := byID[e.TxID]
		if !ok {
			t.Fatalf("ledger entry %d anchors unknown update %q", e.Seq, e.TxID)
		}
		prev, ok := fold[u.Group]
		if !ok {
			prev = m.params.CommitPublic(big.NewInt(0))
		}
		next := m.params.Add(prev, u.C)
		if want := append(u.C.Bytes(), next.Bytes()...); !bytes.Equal(e.Value, want) {
			t.Fatalf("ledger entry %d (%s) does not extend its group's fold: anchored out of fold order", e.Seq, u.ID)
		}
		fold[u.Group] = next
	}
	for _, grp := range groups {
		if !fold[grp].Equal(running(m, grp)) {
			t.Fatalf("group %s: the ledger's fold is not the running commitment", grp)
		}
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

// TestZKBatchEqualsSequentialOnNonMembers: SubmitZKBatch must be
// indistinguishable from per-update SubmitZK when an update carries an
// element outside [1, Q]. In a group of 8 honest updates one element at
// a time — the update's commitment, a digit commitment, an announcement
// in a digit's first or second record — is replaced by its negation
// P − x, the other encoding the membership checks exist to refuse (an
// RLC fold maps its product to [1, Q] and would not notice it). A bound
// proof at bound 1000 is one range proof, in Low: four base-4 digits and
// a top digit over {0, 249, 497, 745}, every digit four-valued and so
// two records (BitProofs[1] is digit 0's second record, BitProofs[9]
// the top digit's). The high.* twists graft a High side, which such a
// proof must not carry, holding the negated element.
// Receipts, the operational error, the running commitment and the
// ledger must match at every position.
func TestZKBatchEqualsSequentialOnNonMembers(t *testing.T) {
	params := commit.NewParams(group.TestGroup())
	negate := func(x **big.Int) { *x = new(big.Int).Sub(params.Group.P, *x) }
	graftHigh := func(u *ZKUpdate) *zk.RangeProof {
		u.Proof.High = zk.RangeProof{Bits: slices.Clone(u.Proof.Low.Bits), BitProofs: slices.Clone(u.Proof.Low.BitProofs)}
		return &u.Proof.High
	}
	twists := map[string]func(u *ZKUpdate){
		"u.C":          func(u *ZKUpdate) { negate(&u.C.C) },
		"low.Bits[0]":  func(u *ZKUpdate) { negate(&u.Proof.Low.Bits[0].C) },
		"low.Bits[3]":  func(u *ZKUpdate) { negate(&u.Proof.Low.Bits[3].C) },
		"high.Bits[3]": func(u *ZKUpdate) { negate(&graftHigh(u).Bits[3].C) },
		"low.A0":       func(u *ZKUpdate) { negate(&u.Proof.Low.BitProofs[2].A0) },
		"low.A1":       func(u *ZKUpdate) { negate(&u.Proof.Low.BitProofs[1].A1) },
		"low.top.A1":   func(u *ZKUpdate) { negate(&u.Proof.Low.BitProofs[9].A1) },
		"high.A1":      func(u *ZKUpdate) { negate(&graftHigh(u).BitProofs[1].A1) },
	}
	const n = 8
	for name, twist := range twists {
		for _, pos := range []int{0, 3, n - 1} {
			t.Run(fmt.Sprintf("%s@%d", name, pos), func(t *testing.T) {
				batch, owner := newZKBatchFixture(t, 1000)
				seq, _ := newZKBatchFixture(t, 1000)
				us := produceZK(t, owner, "g", n, 7)
				twist(&us[pos])
				rsBatch, errBatch := batch.SubmitZKBatch(us)
				rsSeq, errSeq := SubmitSequential(seq.SubmitZK, us)
				if fmt.Sprint(errBatch) != fmt.Sprint(errSeq) {
					t.Fatalf("errors differ: batch %v, sequential %v", errBatch, errSeq)
				}
				if !reflect.DeepEqual(rsBatch, rsSeq) {
					t.Fatalf("receipts differ:\nbatch      %+v\nsequential %+v", rsBatch, rsSeq)
				}
				if rsSeq[pos].Accepted {
					t.Fatalf("update %d accepted with a twisted %s", pos, name)
				}
				requireSameZKState(t, batch, seq, "g")
			})
		}
	}
}

// zkBenchUpdates returns a manager factory and a group of n chained
// bound-40 updates at MODP2048, the engine_zk benchmark's shape, with
// a proof from another group to plant in it.
func zkBenchUpdates(b *testing.B, n int) (fresh func() *ZKBoundManager, us []ZKUpdate, foreign zk.BoundProof) {
	b.Helper()
	params := commit.NewParams(group.MODP2048())
	owner := NewZKOwner(params, "zk-bench", 40)
	for i := 0; i < n; i++ {
		u, err := owner.ProduceUpdate(fmt.Sprintf("u%d", i), "p", "g", 3)
		if err != nil {
			b.Fatal(err)
		}
		us = append(us, u)
	}
	other, err := owner.ProduceUpdate("other", "p", "h", 3)
	if err != nil {
		b.Fatal(err)
	}
	return func() *ZKBoundManager {
		m, err := NewZKBoundManager("zk-bench", params, 40)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}, us, other.Proof
}

// BenchmarkSubmitZKLone is one SubmitZK of a bound-40 update at
// MODP2048 against a fresh manager: a fold of one proof.
func BenchmarkSubmitZKLone(b *testing.B) {
	fresh, us, _ := zkBenchUpdates(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, err := fresh().SubmitZK(us[0]); err != nil || !r.Accepted {
			b.Fatalf("receipt %+v, err %v", r, err)
		}
	}
}

// BenchmarkSubmitZKBatchOneBad is one SubmitZKBatch of a group of 8
// bound-40 updates at MODP2048 whose update 4 carries another group's
// proof: four accepted, four rejected.
func BenchmarkSubmitZKBatchOneBad(b *testing.B) {
	const n, bad = 8, 4
	fresh, us, foreign := zkBenchUpdates(b, n)
	us[bad].Proof = foreign
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := fresh().SubmitZKBatch(us)
		if err != nil {
			b.Fatal(err)
		}
		for j, r := range rs {
			if r.Accepted != (j < bad) {
				b.Fatalf("receipt %d accepted = %v", j, r.Accepted)
			}
		}
	}
}
