package core

import (
	"fmt"
	"testing"
	"time"

	"prever/internal/commit"
	"prever/internal/group"
	"prever/internal/he"
)

// --- every batch entry point, one contract ---------------------------------

// batchRun is one engine's batch entry point reduced to what the shared
// contract checks need. The batch interleaves several ordering keys;
// every update is valid except the one at batchBad, which fails
// operationally and is the last update of its key (so no later update
// depends on state it would have written).
type batchRun struct {
	run   func() ([]Receipt, error)
	stats func() Stats
}

// The batch is batchKeys x batchPer updates, key-interleaved (position
// i*batchKeys+k is key k's i-th update). batchBad is key 0's last
// update: two healthy updates of other keys follow it.
const (
	batchKeys, batchPer = 3, 4
	batchBad            = (batchPer - 1) * batchKeys
)

func batchKey(pos int) string { return fmt.Sprintf("k%d", pos%batchKeys) }

func updateID(pos int) string { return fmt.Sprintf("u%d", pos) }

// TestBatchEntryPoints holds both batch entry points to one contract:
// receipts come back in input order, each key's updates are processed in
// submission order (their ledger sequences increase), and one update's
// operational error is returned without costing any other update its
// receipt.
func TestBatchEntryPoints(t *testing.T) {
	cases := map[string]func(t *testing.T) batchRun{
		"ZKBoundManager.SubmitZKBatch": func(t *testing.T) batchRun {
			m, owner := newZKBatchFixture(t, 1000)
			us := make([]ZKUpdate, batchKeys*batchPer)
			for i := range us {
				u, err := owner.ProduceUpdate(updateID(i), batchKey(i), batchKey(i), 7)
				if err != nil {
					t.Fatal(err)
				}
				us[i] = u
			}
			us[batchBad].C.C = nil
			return batchRun{stats: m.Stats, run: func() ([]Receipt, error) { return m.SubmitZKBatch(us) }}
		},
		"EncryptedManager.SubmitEncryptedBatch": func(t *testing.T) batchRun {
			m, pk := newEncrypted(t)
			us := make([]EncryptedUpdate, batchKeys*batchPer)
			for i := range us {
				us[i] = encUpdate(t, pk, updateID(i), batchKey(i), 8, tBase())
			}
			us[batchBad].Enc = map[string]*he.Ciphertext{}
			return batchRun{stats: m.Stats, run: func() ([]Receipt, error) { return m.SubmitEncryptedBatch(us) }}
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			b := build(t)
			rs, err := b.run()
			if err == nil {
				t.Fatal("the failing update's operational error was not returned")
			}
			const n = batchKeys * batchPer
			if len(rs) != n {
				t.Fatalf("%d receipts for %d updates", len(rs), n)
			}
			lastSeq := make(map[string]uint64)
			for i, r := range rs {
				if i == batchBad {
					if r.Accepted {
						t.Fatalf("failing update %d accepted", i)
					}
					continue
				}
				if r.UpdateID != updateID(i) || !r.Accepted {
					t.Fatalf("receipt %d = %+v, want %q accepted", i, r, updateID(i))
				}
				key := batchKey(i)
				if last, ok := lastSeq[key]; ok && r.LedgerSeq <= last {
					t.Fatalf("key %s processed out of order: seq %d at input %d after %d", key, r.LedgerSeq, i, last)
				}
				lastSeq[key] = r.LedgerSeq
			}
			if s := b.stats(); s.Submitted != n || s.Accepted != n-1 || s.Errors != 1 {
				t.Fatalf("stats = %+v, want %d submitted, %d accepted, 1 error", s, n, n-1)
			}
		})
	}
}

// --- PlainManager ---------------------------------------------------------

// --- ZKBoundManager -------------------------------------------------------

func TestZKBatchConcurrentGroups(t *testing.T) {
	const groups, perGroup = 4, 6
	params := commit.NewParams(group.TestGroup())
	m, err := NewZKBoundManager("zk-conc", params, 1000)
	if err != nil {
		t.Fatal(err)
	}
	owner := NewZKOwner(params, "zk-conc", 1000)
	// Proofs chain per group: produce each group's updates in order, then
	// interleave the groups into one batch.
	var us []ZKUpdate
	for i := 0; i < perGroup; i++ {
		for g := 0; g < groups; g++ {
			grp := fmt.Sprintf("g%d", g)
			u, err := owner.ProduceUpdate(fmt.Sprintf("%s-t%d", grp, i), grp, grp, 8)
			if err != nil {
				t.Fatal(err)
			}
			us = append(us, u)
		}
	}
	rs, err := m.SubmitZKBatch(us)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if !r.Accepted {
			t.Fatalf("zk update %d (%s) rejected: %s", i, r.UpdateID, r.Reason)
		}
	}
	s := m.Stats()
	if want := int64(groups * perGroup); s.Submitted != want || s.Accepted != want {
		t.Fatalf("stats = %+v, want %d", s, want)
	}
	// The running commitments match the owner's totals.
	for g := 0; g < groups; g++ {
		grp := fmt.Sprintf("g%d", g)
		if got := owner.Total(grp); got != int64(perGroup)*8 {
			t.Fatalf("%s owner total = %d", grp, got)
		}
	}
}

// --- EncryptedManager (sequential fallback) -------------------------------

func TestEncryptedBatchSequentialFallback(t *testing.T) {
	m, pk := newEncrypted(t)
	var us []EncryptedUpdate
	for i := 0; i < 6; i++ {
		us = append(us, encUpdate(t, pk, fmt.Sprintf("t%d", i), "w1", 8, tBase().Add(time.Duration(i)*time.Hour)))
	}
	rs, err := m.SubmitEncryptedBatch(us)
	if err != nil {
		t.Fatal(err)
	}
	// 5×8 = 40 accepted; the 6th exceeds the FLSA bound. Sequential order
	// is what makes this deterministic — the serialized default batch path.
	for i, r := range rs {
		if r.UpdateID != us[i].ID {
			t.Fatalf("receipt %d out of order: %q", i, r.UpdateID)
		}
		if want := i < 5; r.Accepted != want {
			t.Fatalf("receipt %d accepted = %v: %s", i, r.Accepted, r.Reason)
		}
	}
	s := m.Stats()
	if s.Submitted != 6 || s.Accepted != 5 || s.Rejected != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// --- PublicPIRManager -----------------------------------------------------

// --- Federations ----------------------------------------------------------
