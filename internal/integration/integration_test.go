// Package integration wires multiple PReVer subsystems together and tests
// whole-paper flows end to end: the Figure-2 pipeline over each Figure-1
// scenario, equivalence between private and plaintext enforcement on
// random traces, and recovery paths (ledger restore, chain audit).
package integration

import (
	"fmt"
	"testing"
	"time"

	"prever/internal/constraint"
	"prever/internal/core"
	"prever/internal/he"
	"prever/internal/ledger"
	"prever/internal/mpc"
	"prever/internal/separ"
	"prever/internal/store"
	"prever/internal/workload"
)

var taskSchema = store.MustSchema(
	store.Column{Name: "worker", Kind: store.KindString},
	store.Column{Name: "hours", Kind: store.KindInt},
	store.Column{Name: "ts", Kind: store.KindTime},
)

const flsa = "SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) + u.hours <= 40"

// TestEncryptedMatchesPlainOnRandomTrace replays the same random
// crowdworking trace through the plaintext baseline and the encrypted
// RC1 engine and demands identical accept/reject decisions — the
// strongest soundness check we have for the homomorphic path.
func TestEncryptedMatchesPlainOnRandomTrace(t *testing.T) {
	// Plain side.
	plain := core.NewPlainManager("plain", nil)
	plain.AddTable(store.NewTable("tasks", taskSchema))
	c, err := core.NewConstraint("flsa", flsa, core.Regulation, core.Public, "dol")
	if err != nil {
		t.Fatal(err)
	}
	plain.AddConstraint(c)

	// Encrypted side.
	helper, err := mpc.NewHelper(256)
	if err != nil {
		t.Fatal(err)
	}
	form, ok := constraint.CompileBound(constraint.MustParse(flsa))
	if !ok {
		t.Fatal("FLSA not linear")
	}
	spec, err := core.DeriveBoundSpec("flsa", form)
	if err != nil {
		t.Fatal(err)
	}
	encM, err := core.NewEncryptedManager("enc", helper.PublicKey(), helper, spec)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := workload.NewCrowdwork(workload.CrowdworkConfig{
		Workers: 4, Platforms: 2, HotWorkers: true, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := gen.Generate(60)
	agreements, accepts := 0, 0
	for i, ev := range events {
		u := core.Update{
			ID: ev.ID, Producer: ev.Worker, Table: "tasks", Key: ev.ID,
			Row: store.Row{
				"worker": store.String_(ev.Worker),
				"hours":  store.Int(ev.Hours),
				"ts":     store.Time(ev.TS),
			},
			TS: ev.TS,
		}
		pr, err := plain.Submit(u)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := helper.PublicKey().EncryptInt(ev.Hours, nil)
		if err != nil {
			t.Fatal(err)
		}
		er, err := encM.SubmitEncrypted(core.EncryptedUpdate{
			ID: ev.ID, Producer: ev.Worker, Group: ev.Worker, TS: ev.TS,
			Enc: map[string]*he.Ciphertext{"hours": ct},
		})
		if err != nil {
			t.Fatal(err)
		}
		if pr.Accepted != er.Accepted {
			t.Fatalf("event %d (%s %dh): plain=%v encrypted=%v", i, ev.Worker, ev.Hours, pr.Accepted, er.Accepted)
		}
		agreements++
		if pr.Accepted {
			accepts++
		}
	}
	if accepts == 0 || accepts == len(events) {
		t.Fatalf("degenerate trace: %d/%d accepted — test not discriminating", accepts, len(events))
	}
	t.Logf("agreed on %d/%d decisions (%d accepted)", agreements, len(events), accepts)
}

// TestSeparFullLifecycle runs the whole §5 story on a chain-backed
// deployment: registration, a working week, the upper bound biting, the
// budget it leaves, and the chain audit.
func TestSeparFullLifecycle(t *testing.T) {
	sys, err := separ.New(separ.Config{
		Platforms: []string{"uber", "lyft"},
		Budget:    40,
		Period:    "2022-W13",
		UseChain:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.RegisterWorker("driver"); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2022, 3, 28, 8, 0, 0, 0, time.UTC)
	// Work 38 hours across both platforms.
	for i, task := range []struct {
		platform string
		hours    int64
	}{{"uber", 20}, {"lyft", 10}, {"uber", 8}} {
		r, err := sys.CompleteTask(workload.TaskEvent{
			ID: fmt.Sprintf("t%d", i), Worker: "driver",
			Platform: task.platform, Hours: task.hours,
			TS: base.Add(time.Duration(i) * time.Hour),
		})
		if err != nil || !r.Accepted {
			t.Fatalf("task %d: %+v %v", i, r, err)
		}
	}
	// The 38 accepted hours spent 38 of the 40 tokens.
	if left, err := sys.Remaining("driver"); err != nil || left != 2 {
		t.Fatalf("remaining budget = %d, %v; want 2", left, err)
	}
	// The 39th+3 hours exceed the budget.
	r, err := sys.CompleteTask(workload.TaskEvent{
		ID: "t-over", Worker: "driver", Platform: "lyft", Hours: 3,
		TS: base.Add(4 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Accepted {
		t.Fatal("41 hours accepted")
	}
	// Chain audit across all peers.
	if err := sys.AuditChain(); err != nil {
		t.Fatalf("chain audit: %v", err)
	}
	// The spent-token registry holds exactly the accepted hours.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && sys.Chain().Peers()[0].Height() < 38 {
		time.Sleep(time.Millisecond)
	}
	if h := sys.Chain().Peers()[0].Height(); h < 38 {
		t.Fatalf("chain height %d < 38 spends", h)
	}
}

// TestLedgerSurvivesRestart runs updates through a manager, persists the
// journal, restores it, and continues submitting against the restored
// state — the regulation must still see the pre-restart history.
func TestLedgerSurvivesRestart(t *testing.T) {
	m := core.NewPlainManager("m", nil)
	m.AddTable(store.NewTable("tasks", taskSchema))
	c, _ := core.NewConstraint("flsa", flsa, core.Regulation, core.Public, "dol")
	m.AddConstraint(c)
	base := time.Date(2022, 3, 28, 8, 0, 0, 0, time.UTC)
	for i := 0; i < 4; i++ {
		r, err := m.Submit(core.Update{
			ID: fmt.Sprintf("t%d", i), Table: "tasks", Key: fmt.Sprintf("t%d", i),
			Row: store.Row{
				"worker": store.String_("w"),
				"hours":  store.Int(10),
				"ts":     store.Time(base),
			},
			TS: base,
		})
		if err != nil || !r.Accepted {
			t.Fatalf("submit %d: %+v %v", i, r, err)
		}
	}
	// Persist and restore the journal.
	data, err := m.Ledger().MarshalJournal()
	if err != nil {
		t.Fatal(err)
	}
	entries, digest, err := ledger.UnmarshalJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ledger.FromJournal(entries, digest)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Digest() != m.Ledger().Digest() {
		t.Fatal("restored digest differs")
	}
	// The restored state holds the manager's four rows.
	keys := 0
	restored.Range(func(string, []byte) bool { keys++; return true })
	if keys != 4 {
		t.Fatalf("restored %d keys", keys)
	}
}

// TestFederatedMechanismsAgree replays one trace through the token and
// MPC federations; although their privacy architectures differ, both
// enforce the same bound, so per-worker accepted totals must both respect
// the cap, and a worker under the cap must be fully accepted by both.
func TestFederatedMechanismsAgree(t *testing.T) {
	helper, err := mpc.NewHelper(256)
	if err != nil {
		t.Fatal(err)
	}
	platforms := []string{"p0", "p1"}
	mpcFed, err := core.NewMPCFederation("mpc", helper.PublicKey(), helper, 40, 0, platforms)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := separ.New(separ.Config{Platforms: platforms, Budget: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	base := time.Date(2022, 3, 28, 0, 0, 0, 0, time.UTC)
	// Worker A: 30 hours (under). Worker B: 50 hours (over by 10).
	type task struct {
		worker   string
		platform string
		hours    int64
	}
	tasks := []task{
		{"A", "p0", 15}, {"A", "p1", 15},
		{"B", "p0", 20}, {"B", "p1", 20}, {"B", "p0", 10},
	}
	sys.RegisterWorker("A")
	sys.RegisterWorker("B")
	tally := func(accept map[string]int64, worker string, hours int64, accepted bool) {
		if accepted {
			accept[worker] += hours
		}
	}
	mpcTotals := map[string]int64{}
	tokTotals := map[string]int64{}
	for i, task := range tasks {
		ts := base.Add(time.Duration(i) * time.Hour)
		mr, err := mpcFed.SubmitTask(core.TaskSubmission{
			ID: fmt.Sprintf("m%d", i), Worker: task.worker, Platform: task.platform,
			Hours: task.hours, TS: ts,
		})
		if err != nil {
			t.Fatal(err)
		}
		tally(mpcTotals, task.worker, task.hours, mr.Accepted)
		sr, err := sys.CompleteTask(workload.TaskEvent{
			ID: fmt.Sprintf("s%d", i), Worker: task.worker, Platform: task.platform,
			Hours: task.hours, TS: ts,
		})
		if err != nil {
			t.Fatal(err)
		}
		tally(tokTotals, task.worker, task.hours, sr.Accepted)
	}
	for _, w := range []string{"A", "B"} {
		if mpcTotals[w] > 40 || tokTotals[w] > 40 {
			t.Fatalf("worker %s over cap: mpc=%d tokens=%d", w, mpcTotals[w], tokTotals[w])
		}
	}
	if mpcTotals["A"] != 30 || tokTotals["A"] != 30 {
		t.Fatalf("under-cap worker not fully accepted: mpc=%d tokens=%d", mpcTotals["A"], tokTotals["A"])
	}
	// Both mechanisms reject B's last 10-hour task (40 already worked).
	if mpcTotals["B"] != 40 || tokTotals["B"] != 40 {
		t.Fatalf("worker B totals: mpc=%d tokens=%d, want 40/40", mpcTotals["B"], tokTotals["B"])
	}
}
