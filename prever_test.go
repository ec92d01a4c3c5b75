package prever_test

import (
	"fmt"
	"testing"
	"time"

	"prever"
)

// These tests exercise the public facade end to end: a downstream user
// should be able to build every paper scenario from package prever alone.

func TestVersion(t *testing.T) {
	if prever.Version == "" {
		t.Fatal("empty version")
	}
}

func TestFacadePlainPipeline(t *testing.T) {
	tasks, err := prever.NewTable("tasks",
		prever.Column{Name: "worker", Kind: prever.KindString},
		prever.Column{Name: "hours", Kind: prever.KindInt},
		prever.Column{Name: "ts", Kind: prever.KindTime},
	)
	if err != nil {
		t.Fatal(err)
	}
	m := prever.NewPlainManager("facade")
	m.AddTable(tasks)
	c, err := prever.NewConstraint("cap", "u.hours <= 12", prever.Internal, prever.Private, "owner")
	if err != nil {
		t.Fatal(err)
	}
	m.AddConstraint(c)
	now := time.Now()
	r, err := m.Submit(prever.Update{
		ID: "t1", Table: "tasks", Key: "t1",
		Row: prever.Row{"worker": prever.Str("w"), "hours": prever.Int(8), "ts": prever.Time(now)},
		TS:  now,
	})
	if err != nil || !r.Accepted {
		t.Fatalf("submit: %+v, %v", r, err)
	}
	r, _ = m.Submit(prever.Update{
		ID: "t2", Table: "tasks", Key: "t2",
		Row: prever.Row{"worker": prever.Str("w"), "hours": prever.Int(13), "ts": prever.Time(now)},
		TS:  now,
	})
	if r.Accepted {
		t.Fatal("13h shift accepted against a 12h cap")
	}
	rep := prever.AuditLedger(m.Ledger().Export(), m.Ledger().Digest())
	if !rep.Clean() {
		t.Fatalf("audit: %+v", rep)
	}
}

func TestFacadeNewTableValidation(t *testing.T) {
	if _, err := prever.NewTable("t", prever.Column{Name: "a", Kind: prever.KindInt}, prever.Column{Name: "a", Kind: prever.KindInt}); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

func TestFacadeParseConstraint(t *testing.T) {
	e, err := prever.ParseConstraint("u.hours <= 40")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() == "" {
		t.Fatal("empty rendering")
	}
	if _, err := prever.ParseConstraint("garbage ("); err == nil {
		t.Fatal("garbage parsed")
	}
}

func TestFacadeEncryptedManagerRejectsNonLinear(t *testing.T) {
	_, err := prever.NewEncryptedManager("x", "u.kind = 'a'", 512)
	if err == nil {
		t.Fatal("non-linear constraint accepted")
	}
	if _, ok := err.(*prever.NotLinearError); !ok {
		t.Fatalf("error type = %T", err)
	}
}

func TestFacadeEncryptedRoundTrip(t *testing.T) {
	setup, err := prever.NewEncryptedManager("cap",
		"SUM(t.v WHERE t.g = u.g) + u.v <= 10", 256)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := prever.EncryptInt(setup.Key, 7)
	if err != nil {
		t.Fatal(err)
	}
	r, err := setup.Manager.SubmitEncrypted(prever.EncryptedUpdate{
		ID: "u1", Group: "g1", TS: time.Now(),
		Enc: map[string]*prever.HECiphertext{"v": ct},
	})
	if err != nil || !r.Accepted {
		t.Fatalf("first: %+v, %v", r, err)
	}
	ct2, _ := prever.EncryptInt(setup.Key, 7)
	r, err = setup.Manager.SubmitEncrypted(prever.EncryptedUpdate{
		ID: "u2", Group: "g1", TS: time.Now(),
		Enc: map[string]*prever.HECiphertext{"v": ct2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Accepted {
		t.Fatal("14 <= 10 accepted")
	}
}

func TestFacadeZKRoundTrip(t *testing.T) {
	setup, err := prever.NewZKBoundManagerWithGroup("cap", 10, prever.TestGroup())
	if err != nil {
		t.Fatal(err)
	}
	u, err := setup.Owner.ProduceUpdate("u1", "p", "g", 6)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := setup.Manager.SubmitZK(u); !r.Accepted {
		t.Fatal("honest proof rejected")
	}
	if _, err := setup.Owner.ProduceUpdate("u2", "p", "g", 5); err == nil {
		t.Fatal("11 <= 10 provable")
	}
}

func TestFacadeTokenFederation(t *testing.T) {
	setup, err := prever.NewTokenFederation("fed", "w13", []string{"a", "b"}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	w, err := prever.NewWallet(setup.Authority.PublicKey(), "w13", 3)
	if err != nil {
		t.Fatal(err)
	}
	sigs, err := setup.Authority.IssueBudget("worker", "w13", w.BlindedRequests(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Finalize(sigs); err != nil {
		t.Fatal(err)
	}
	r, err := setup.Federation.SubmitTask(prever.TaskSubmission{
		ID: "t1", Worker: "worker", Platform: "a", Hours: 3, TS: time.Now(),
	}, w)
	if err != nil || !r.Accepted {
		t.Fatalf("task: %+v, %v", r, err)
	}
	r, _ = setup.Federation.SubmitTask(prever.TaskSubmission{
		ID: "t2", Worker: "worker", Platform: "b", Hours: 1, TS: time.Now(),
	}, w)
	if r.Accepted {
		t.Fatal("over-budget task accepted")
	}
}

func TestFacadeMPCFederation(t *testing.T) {
	setup, err := prever.NewMPCFederationSetup("fed", 10, 0, []string{"a", "b"}, 256)
	if err != nil {
		t.Fatal(err)
	}
	fed := setup.Federation
	r, err := fed.SubmitTask(prever.TaskSubmission{ID: "t1", Worker: "w", Platform: "a", Hours: 6, TS: time.Now()})
	if err != nil || !r.Accepted {
		t.Fatalf("t1: %+v, %v", r, err)
	}
	r, _ = fed.SubmitTask(prever.TaskSubmission{ID: "t2", Worker: "w", Platform: "b", Hours: 5, TS: time.Now()})
	if r.Accepted {
		t.Fatal("11 <= 10 accepted")
	}
}

func TestFacadePublicPIR(t *testing.T) {
	setup, err := prever.NewPublicPIRSetup("conf", "evt", 128, 1024)
	if err != nil {
		t.Fatal(err)
	}
	m, auth := setup.Manager, setup.Authority
	w, _ := prever.NewWallet(auth.PublicKey(), "evt", 1)
	sigs, err := auth.IssueBudget("alice", "evt", w.BlindedRequests(), 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Finalize(sigs)
	cred, _ := w.Next()
	r, err := m.SubmitWithCredential(prever.PublicEntry{Key: "alice", Data: "x"}, cred)
	if err != nil || !r.Accepted {
		t.Fatalf("register: %+v, %v", r, err)
	}
	entry, err := m.PrivateLookup("alice")
	if err != nil || entry.Data != "x" {
		t.Fatalf("lookup: %+v, %v", entry, err)
	}
}

func TestFacadeSepar(t *testing.T) {
	sys, err := prever.NewSepar(prever.SeparConfig{Platforms: []string{"a", "b"}, Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.RegisterWorker("w"); err != nil {
		t.Fatal(err)
	}
	rem, _ := sys.Remaining("w")
	if rem != 5 {
		t.Fatalf("remaining = %d", rem)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	y, err := prever.NewYCSB(prever.YCSBConfig{Workload: "A", RecordCount: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(y.Generate(5)) != 5 {
		t.Fatal("ycsb generation")
	}
	c, err := prever.NewCrowdwork(prever.CrowdworkConfig{Workers: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Generate(5)) != 5 {
		t.Fatal("crowdwork generation")
	}
}

func TestFacadeDP(t *testing.T) {
	acct, err := prever.NewDPAccountant(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := acct.Spend(0.5); err != nil {
		t.Fatal(err)
	}
	if acct.Remaining() != 0.5 {
		t.Fatalf("remaining = %v", acct.Remaining())
	}
}

func TestFacadePIR(t *testing.T) {
	db, err := prever.NewPIRDatabase(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := db.Update(i, []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := db.PrivateRead(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:2]) != "r3" {
		t.Fatalf("read = %q", got)
	}
}

func TestFacadeBigInt(t *testing.T) {
	if prever.BigInt(42).Int64() != 42 {
		t.Fatal("BigInt")
	}
}

func TestFacadeEncryptedMulti(t *testing.T) {
	setup, err := prever.NewEncryptedManagerMulti("multi", map[string]string{
		"cap-total": "SUM(t.v WHERE t.g = u.g) + u.v <= 20",
		"cap-each":  "u.v <= 8",
	}, 256)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(id string, v int64) prever.Receipt {
		ct, err := prever.EncryptInt(setup.Key, v)
		if err != nil {
			t.Fatal(err)
		}
		r, err := setup.Manager.SubmitEncrypted(prever.EncryptedUpdate{
			ID: id, Group: "g", TS: time.Now(),
			Enc: map[string]*prever.HECiphertext{"v": ct},
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r := submit("a", 9); r.Accepted {
		t.Fatal("9 > 8 per-update cap accepted")
	}
	if r := submit("b", 8); !r.Accepted {
		t.Fatalf("8 rejected: %s", r.Reason)
	}
	if r := submit("c", 8); !r.Accepted {
		t.Fatalf("16 total rejected: %s", r.Reason)
	}
	if r := submit("d", 5); r.Accepted {
		t.Fatal("21 > 20 total accepted")
	}
	s := setup.Manager.Stats()
	if s.Submitted != 4 || s.Accepted != 2 || s.Rejected != 2 {
		t.Fatalf("stats = %+v", s)
	}
}
