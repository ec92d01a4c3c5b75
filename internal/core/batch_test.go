package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prever/internal/commit"
	"prever/internal/group"
	"prever/internal/he"
	"prever/internal/token"
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
	// receiptID names the receipt expected at an input position; nil
	// means the update's own ID (updateID).
	receiptID func(pos int) string
}

// The batch is batchKeys x batchPer updates, key-interleaved (position
// i*batchKeys+k is key k's i-th update). batchBad is key 0's last
// update: two healthy updates of other keys follow it.
const (
	batchKeys, batchPer = 3, 4
	batchBad            = (batchPer - 1) * batchKeys
)

// holderSeq names credential holders: the shared test authority issues
// one credential per holder per process, -count reruns included.
var holderSeq atomic.Int64

func batchKey(pos int) string { return fmt.Sprintf("k%d", pos%batchKeys) }

func updateID(pos int) string { return fmt.Sprintf("u%d", pos) }

// TestBatchEntryPoints holds all six batch entry points to one contract:
// receipts come back in input order, each key's updates are processed in
// submission order (their ledger sequences increase), and one update's
// operational error is returned without costing any other update its
// receipt.
func TestBatchEntryPoints(t *testing.T) {
	cases := map[string]func(t *testing.T) batchRun{
		"PlainManager.SubmitBatch": func(t *testing.T) batchRun {
			m := newPlain(t)
			us := make([]Update, batchKeys*batchPer)
			for i := range us {
				us[i] = taskUpdate(updateID(i), batchKey(i), 8, tBase())
			}
			us[batchBad].Table = "no-such-table"
			return batchRun{stats: m.Stats, run: func() ([]Receipt, error) { return m.SubmitBatch(us) }}
		},
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
		"PublicPIRManager.SubmitCredentialedBatch": func(t *testing.T) batchRun {
			m, auth := newPublicMgr(t)
			ces := make([]CredentialedEntry, batchKeys*batchPer)
			for i := range ces {
				ces[i] = CredentialedEntry{
					Entry: PublicEntry{Key: batchKey(i), Data: fmt.Sprintf("v%d", i)},
					Cred:  credential(t, auth, fmt.Sprintf("holder%d", holderSeq.Add(1))),
				}
			}
			ces[batchBad].Entry.Data = strings.Repeat("x", 256) // over the 128-byte block
			return batchRun{
				stats: m.Stats,
				run:   func() ([]Receipt, error) { return m.SubmitCredentialedBatch(ces) },
				// The PIR engine's receipts are named after the entry key.
				receiptID: batchKey,
			}
		},
		"TokenFederation.SubmitTasks": func(t *testing.T) batchRun {
			fed, auth := newTokenFed(t)
			subs := taskBatch()
			wallets := make(map[string]*token.Wallet)
			for k := 0; k < batchKeys; k++ {
				wallets[batchKey(k)] = issueTokens(t, auth, batchKey(k), 2*batchPer)
			}
			return batchRun{stats: fed.Stats, run: func() ([]Receipt, error) { return fed.SubmitTasks(subs, wallets) }}
		},
		"MPCFederation.SubmitTaskBatch": func(t *testing.T) batchRun {
			fed := newMPCFed(t)
			subs := taskBatch()
			return batchRun{stats: fed.Stats, run: func() ([]Receipt, error) { return fed.SubmitTaskBatch(subs) }}
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
			receiptID := b.receiptID
			if receiptID == nil {
				receiptID = updateID
			}
			lastSeq := make(map[string]uint64)
			for i, r := range rs {
				if i == batchBad {
					if r.Accepted {
						t.Fatalf("failing update %d accepted", i)
					}
					continue
				}
				if r.UpdateID != receiptID(i) || !r.Accepted {
					t.Fatalf("receipt %d = %+v, want %q accepted", i, r, receiptID(i))
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

// taskBatch is the federations' batch: 2-hour tasks on one platform (so
// one ledger numbers them all), the failing one with no hours.
func taskBatch() []TaskSubmission {
	subs := make([]TaskSubmission, batchKeys*batchPer)
	for i := range subs {
		subs[i] = TaskSubmission{ID: updateID(i), Worker: batchKey(i), Platform: "uber", Hours: 2, TS: tBase()}
	}
	subs[batchBad].Hours = 0
	return subs
}

// --- PlainManager ---------------------------------------------------------

// TestPlainSubmitBatchConcurrent: several callers batch at once, each
// for its own producers; the counters add up and every producer's
// updates were anchored in submission order.
func TestPlainSubmitBatchConcurrent(t *testing.T) {
	const callers, producersPer, perProducer = 3, 2, 30
	m := newPlain(t)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var us []Update
			for i := 0; i < perProducer; i++ {
				for p := 0; p < producersPer; p++ {
					worker := fmt.Sprintf("c%d-w%d", c, p)
					us = append(us, taskUpdate(fmt.Sprintf("%s-t%d", worker, i), worker, 1, tBase().Add(time.Duration(i)*time.Minute)))
				}
			}
			rs, err := m.SubmitBatch(us)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			last := make(map[string]uint64)
			for i, r := range rs {
				if !r.Accepted {
					t.Errorf("update %s rejected: %s", us[i].ID, r.Reason)
					return
				}
				if prev, ok := last[us[i].Producer]; ok && r.LedgerSeq <= prev {
					t.Errorf("producer %s receipts out of order: %d after %d", us[i].Producer, r.LedgerSeq, prev)
					return
				}
				last[us[i].Producer] = r.LedgerSeq
			}
		}(c)
	}
	wg.Wait()
	s := m.Stats()
	if want := int64(callers * producersPer * perProducer); s.Submitted != want || s.Accepted != want {
		t.Fatalf("stats = %+v, want %d submitted+accepted", s, want)
	}
	if s.Rejected != 0 || s.Errors != 0 {
		t.Fatalf("unexpected rejections/errors: %+v", s)
	}
	if s.Latency.Count != s.Submitted || s.Latency.P50 > s.Latency.P95 || s.Latency.P95 > s.Latency.P99 || s.Latency.P99 > s.Latency.Max {
		t.Fatalf("latency summary inconsistent: %+v", s.Latency)
	}
}

func TestPlainSubmitBatchOrderAndEnforcement(t *testing.T) {
	m := newPlain(t)
	var us []Update
	// 6 workers × 5 updates of 8h: all accepted (40h each); then one more
	// per worker: all rejected.
	for i := 0; i < 5; i++ {
		for w := 0; w < 6; w++ {
			worker := fmt.Sprintf("w%d", w)
			us = append(us, taskUpdate(fmt.Sprintf("%s-t%d", worker, i), worker, 8, tBase()))
		}
	}
	for w := 0; w < 6; w++ {
		worker := fmt.Sprintf("w%d", w)
		us = append(us, taskUpdate(fmt.Sprintf("%s-over", worker), worker, 8, tBase()))
	}
	rs, err := m.SubmitBatch(us)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(us) {
		t.Fatalf("%d receipts for %d updates", len(rs), len(us))
	}
	for i, r := range rs {
		if r.UpdateID != us[i].ID {
			t.Fatalf("receipt %d is for %q, want %q", i, r.UpdateID, us[i].ID)
		}
		over := i >= 30
		if r.Accepted == over {
			t.Fatalf("receipt %d (%s): accepted = %v", i, r.UpdateID, r.Accepted)
		}
	}
	s := m.Stats()
	if s.Submitted != 36 || s.Accepted != 30 || s.Rejected != 6 {
		t.Fatalf("stats = %+v", s)
	}
}

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

func TestPIRBatchConcurrentRegistrations(t *testing.T) {
	const n = 12
	m, auth := newPublicMgr(t)
	ces := make([]CredentialedEntry, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("attendee-%d", i)
		ces = append(ces, CredentialedEntry{
			Entry: PublicEntry{Key: key, Data: "ok"},
			Cred:  credential(t, auth, key),
		})
	}
	rs, err := m.SubmitCredentialedBatch(ces)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if !r.Accepted {
			t.Fatalf("registration %d rejected: %s", i, r.Reason)
		}
	}
	if m.Size() != n {
		t.Fatalf("directory size = %d, want %d", m.Size(), n)
	}
	if s := m.Stats(); s.Submitted != n || s.Accepted != n {
		t.Fatalf("stats = %+v", s)
	}
	if !m.AuditReplicas() {
		t.Fatal("PIR replicas diverged under concurrent updates")
	}
}

// --- Federations ----------------------------------------------------------

func TestTokenFederationBatch(t *testing.T) {
	fed, auth := newTokenFed(t)
	wallets := map[string]*token.Wallet{
		"alice": issueTokens(t, auth, "alice", 10),
		"bob":   issueTokens(t, auth, "bob", 10),
	}
	var subs []TaskSubmission
	for i := 0; i < 4; i++ {
		for _, w := range []string{"alice", "bob"} {
			subs = append(subs, TaskSubmission{
				ID: fmt.Sprintf("%s-t%d", w, i), Worker: w,
				Platform: "uber", Hours: 2, TS: tBase(),
			})
		}
	}
	rs, err := fed.SubmitTasks(subs, wallets)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if !r.Accepted {
			t.Fatalf("task %d rejected: %s", i, r.Reason)
		}
		if len(r.Spent) != 2 {
			t.Fatalf("task %d spent %d tokens, want 2", i, len(r.Spent))
		}
	}
	if _, err := fed.SubmitTasks([]TaskSubmission{{ID: "x", Worker: "carol", Platform: "uber", Hours: 1, TS: tBase()}}, wallets); err == nil {
		t.Fatal("missing wallet accepted")
	}
	if s := fed.Stats(); s.Submitted != 8 || s.Accepted != 8 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMPCFederationBatchConcurrentWorkers(t *testing.T) {
	helper, _ := fixtures(t)
	fed, err := NewMPCFederation("flsa-mpc", helper.PublicKey(), helper, 40, 168*time.Hour,
		[]string{"uber", "lyft"})
	if err != nil {
		t.Fatal(err)
	}
	var subs []TaskSubmission
	for i := 0; i < 3; i++ {
		for _, w := range []string{"alice", "bob", "carol"} {
			subs = append(subs, TaskSubmission{
				ID: fmt.Sprintf("%s-t%d", w, i), Worker: w,
				Platform: "uber", Hours: 8, TS: tBase().Add(time.Duration(i) * time.Hour),
			})
		}
	}
	rs, err := fed.SubmitTaskBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if !r.Accepted {
			t.Fatalf("task %d (%s) rejected: %s", i, r.UpdateID, r.Reason)
		}
	}
	// Each worker is at 24h; 17 more violates the 40h bound, 16 fits.
	over, err := fed.SubmitTask(TaskSubmission{ID: "alice-over", Worker: "alice", Platform: "lyft", Hours: 17, TS: tBase().Add(4 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if over.Accepted {
		t.Fatal("over-bound task accepted")
	}
	if s := fed.Stats(); s.Submitted != 10 || s.Accepted != 9 || s.Rejected != 1 {
		t.Fatalf("stats = %+v", s)
	}
}
