package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"prever/internal/constraint"
	"prever/internal/ledger"
	"prever/internal/store"
)

var coreTaskSchema = store.MustSchema(
	store.Column{Name: "worker", Kind: store.KindString},
	store.Column{Name: "hours", Kind: store.KindInt},
	store.Column{Name: "ts", Kind: store.KindTime},
)

func tBase() time.Time { return time.Date(2022, 3, 29, 12, 0, 0, 0, time.UTC) }

func taskUpdate(id, worker string, hours int64, ts time.Time) Update {
	return Update{
		ID:       id,
		Producer: worker,
		Table:    "tasks",
		Key:      id,
		Row: store.Row{
			"worker": store.String_(worker),
			"hours":  store.Int(hours),
			"ts":     store.Time(ts),
		},
		TS: ts,
	}
}

const flsaSource = "SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) + u.hours <= 40"

func TestParticipantRoles(t *testing.T) {
	p := Participant{ID: "uber", Roles: []Role{RoleManager, RoleOwner}, Threat: Covert, Colludes: true}
	if p.Threat.String() != "covert" {
		t.Fatalf("threat = %s", p.Threat)
	}
	if RoleProducer.String() != "data-producer" {
		t.Fatal("role naming")
	}
}

func TestPrivacyAndScopeStrings(t *testing.T) {
	if Public.String() != "public" || Private.String() != "private" {
		t.Fatal("privacy naming")
	}
	if Internal.String() != "internal" || Regulation.String() != "regulation" {
		t.Fatal("scope naming")
	}
}

func TestNewConstraintParsesAndRejects(t *testing.T) {
	c, err := NewConstraint("flsa", flsaSource, Regulation, Public, "dol")
	if err != nil {
		t.Fatal(err)
	}
	if c.Expr == nil || c.Scope != Regulation {
		t.Fatalf("constraint = %+v", c)
	}
	if _, err := NewConstraint("bad", "u.hours <=", Internal, Private, "x"); err == nil {
		t.Fatal("bad source accepted")
	}
}

func newPlain(t testing.TB) *PlainManager {
	t.Helper()
	m := NewPlainManager("plain", nil)
	m.AddTable(store.NewTable("tasks", coreTaskSchema))
	c, err := NewConstraint("flsa", flsaSource, Regulation, Public, "dol")
	if err != nil {
		t.Fatal(err)
	}
	m.AddConstraint(c)
	return m
}

func TestPlainManagerAcceptAndReject(t *testing.T) {
	m := newPlain(t)
	// 5 updates of 8 hours = 40: all accepted.
	for i := 0; i < 5; i++ {
		u := taskUpdate(fmt.Sprintf("t%d", i), "w1", 8, tBase().Add(time.Duration(i)*time.Hour))
		r, err := m.Submit(u)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Accepted {
			t.Fatalf("update %d rejected: %s", i, r.Reason)
		}
	}
	// The 41st hour is rejected.
	r, err := m.Submit(taskUpdate("t5", "w1", 1, tBase().Add(6*time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Accepted {
		t.Fatal("41st hour accepted")
	}
	if r.Violated != "flsa" {
		t.Fatalf("violated = %q", r.Violated)
	}
	// Another worker is unaffected.
	r, _ = m.Submit(taskUpdate("t6", "w2", 8, tBase()))
	if !r.Accepted {
		t.Fatalf("other worker rejected: %s", r.Reason)
	}
}

func TestPlainManagerSlidingWindowForgets(t *testing.T) {
	m := newPlain(t)
	// 40 hours this week.
	for i := 0; i < 5; i++ {
		r, _ := m.Submit(taskUpdate(fmt.Sprintf("a%d", i), "w1", 8, tBase()))
		if !r.Accepted {
			t.Fatal("setup rejected")
		}
	}
	// Next week the window has moved: accepted again.
	r, err := m.Submit(taskUpdate("b0", "w1", 8, tBase().Add(200*time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Accepted {
		t.Fatalf("next-week update rejected: %s", r.Reason)
	}
}

func rowCount(tbl *store.Table) int {
	n := 0
	tbl.Scan(func(string, store.Row) bool { n++; return true })
	return n
}

func TestPlainManagerRejectedUpdateNotApplied(t *testing.T) {
	m := newPlain(t)
	for i := 0; i < 5; i++ {
		m.Submit(taskUpdate(fmt.Sprintf("t%d", i), "w1", 8, tBase()))
	}
	before := m.Ledger().Size()
	tbl := m.tables["tasks"]
	rowsBefore := rowCount(tbl)
	r, _ := m.Submit(taskUpdate("bad", "w1", 10, tBase()))
	if r.Accepted {
		t.Fatal("over-limit update accepted")
	}
	if m.Ledger().Size() != before {
		t.Fatal("rejected update reached the ledger")
	}
	if rowCount(tbl) != rowsBefore {
		t.Fatal("rejected update reached the table")
	}
}

func TestPlainManagerUnknownTable(t *testing.T) {
	m := NewPlainManager("plain", nil)
	if _, err := m.Submit(taskUpdate("t0", "w", 1, tBase())); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestPlainManagerConstraintEvalErrorSurfaces(t *testing.T) {
	m := NewPlainManager("plain", nil)
	m.AddTable(store.NewTable("tasks", coreTaskSchema))
	c, _ := NewConstraint("broken", "u.nonexistent <= 40", Internal, Private, "owner")
	m.AddConstraint(c)
	if _, err := m.Submit(taskUpdate("t0", "w", 1, tBase())); err == nil {
		t.Fatal("eval error swallowed")
	}
}

func TestPlainManagerLedgerAuditsClean(t *testing.T) {
	m := newPlain(t)
	for i := 0; i < 10; i++ {
		m.Submit(taskUpdate(fmt.Sprintf("t%d", i), fmt.Sprintf("w%d", i), 8, tBase()))
	}
	l := m.Ledger()
	if rep := ledger.Audit(l.Export(), l.Digest()); !rep.Clean() {
		t.Fatalf("ledger audit failed: %+v", rep)
	}
}

func TestPlainManagerMultipleConstraints(t *testing.T) {
	m := newPlain(t)
	c, _ := NewConstraint("max-shift", "u.hours <= 12", Internal, Private, "owner")
	m.AddConstraint(c)
	if len(m.constraints) != 2 {
		t.Fatal("constraint registration")
	}
	r, _ := m.Submit(taskUpdate("t0", "w1", 13, tBase()))
	if r.Accepted || r.Violated != "max-shift" {
		t.Fatalf("internal constraint not enforced: %+v", r)
	}
}

// TestPlainSubmitConcurrent: one goroutine per producer calls Submit at
// once (verification shares the read lock, incorporation serializes in
// the table and ledger); the counters add up and every producer's
// updates were anchored in submission order.
func TestPlainSubmitConcurrent(t *testing.T) {
	const producers, perProducer = 6, 30
	m := newPlain(t)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			worker := fmt.Sprintf("w%d", p)
			var last uint64
			for i := 0; i < perProducer; i++ {
				u := taskUpdate(fmt.Sprintf("%s-t%d", worker, i), worker, 1, tBase().Add(time.Duration(i)*time.Minute))
				r, err := m.Submit(u)
				if err != nil {
					t.Errorf("submit %s: %v", u.ID, err)
					return
				}
				if !r.Accepted {
					t.Errorf("update %s rejected: %s", u.ID, r.Reason)
					return
				}
				if i > 0 && r.LedgerSeq <= last {
					t.Errorf("producer %s receipts out of order: %d after %d", worker, r.LedgerSeq, last)
					return
				}
				last = r.LedgerSeq
			}
		}(p)
	}
	wg.Wait()
	s := m.Stats()
	if want := int64(producers * perProducer); s.Submitted != want || s.Accepted != want {
		t.Fatalf("stats = %+v, want %d submitted+accepted", s, want)
	}
	if s.Rejected != 0 || s.Errors != 0 {
		t.Fatalf("unexpected rejections/errors: %+v", s)
	}
	if s.Latency.Count != s.Submitted || s.Latency.P50 > s.Latency.P95 || s.Latency.P95 > s.Latency.P99 || s.Latency.P99 > s.Latency.Max {
		t.Fatalf("latency summary inconsistent: %+v", s.Latency)
	}
	if rep := ledger.Audit(m.Ledger().Export(), m.Ledger().Digest()); !rep.Clean() {
		t.Fatalf("ledger audit after concurrent submits: %+v", rep)
	}
}

func TestErrRejectedFormatting(t *testing.T) {
	err := &ErrRejected{Receipt: Receipt{UpdateID: "u1", Violated: "flsa", Reason: "over"}}
	if err.Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestDeriveBoundSpecFLSA(t *testing.T) {
	form, ok := constraint.CompileBound(constraint.MustParse(flsaSource))
	if !ok {
		t.Fatal("FLSA not linear")
	}
	spec, err := DeriveBoundSpec("flsa", form)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Agg == nil || spec.Agg.GroupField != "worker" || spec.Agg.Window != 168*time.Hour {
		t.Fatalf("agg spec = %+v", spec.Agg)
	}
	if spec.UpdateTerms["hours"] != 1 || spec.Bound != 40 || !spec.Upper {
		t.Fatalf("spec = %+v", spec)
	}
}

func TestDeriveBoundSpecRejectsUnsupported(t *testing.T) {
	cases := []string{
		"SUM(tasks.hours) <= 40",                                 // no grouping filter
		"SUM(tasks.hours WHERE tasks.hours > 1) <= 40",           // non-equality filter
		"SUM(tasks.hours WHERE tasks.worker = u.platform) <= 40", // mismatched fields
		"SUM(tasks.hours WHERE tasks.worker = u.worker) + SUM(tasks.hours WHERE tasks.worker = u.worker) <= 40", // two aggregates
	}
	for _, src := range cases {
		form, ok := constraint.CompileBound(constraint.MustParse(src))
		if !ok {
			t.Fatalf("%q did not compile to a bound", src)
		}
		if _, err := DeriveBoundSpec("x", form); err == nil {
			t.Errorf("DeriveBoundSpec accepted %q", src)
		}
	}
}

func TestDeriveBoundSpecStrictOps(t *testing.T) {
	form, _ := constraint.CompileBound(constraint.MustParse("u.hours < 10"))
	spec, err := DeriveBoundSpec("x", form)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Bound != 9 {
		t.Fatalf("strict < not normalized: bound = %d", spec.Bound)
	}
	form, _ = constraint.CompileBound(constraint.MustParse("u.hours > 3"))
	spec, _ = DeriveBoundSpec("x", form)
	if spec.Bound != 4 || spec.Upper {
		t.Fatalf("strict > not normalized: %+v", spec)
	}
}

func BenchmarkPlainSubmit(b *testing.B) {
	m := newPlain(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Spread workers so the regulation never rejects.
		u := taskUpdate(fmt.Sprintf("t%d", i), fmt.Sprintf("w%d", i%1000), 8, tBase())
		if _, err := m.Submit(u); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStatsCountersTrackOutcomes(t *testing.T) {
	m := newPlain(t)
	// 5 accepts, 1 reject, 1 error.
	for i := 0; i < 5; i++ {
		m.Submit(taskUpdate(fmt.Sprintf("t%d", i), "w1", 8, tBase()))
	}
	m.Submit(taskUpdate("t5", "w1", 10, tBase()))                                // rejected
	m.Submit(Update{ID: "bad", Table: "ghost", Key: "x", Row: nil, TS: tBase()}) // error
	s := m.Stats()
	if s.Submitted != 7 || s.Accepted != 5 || s.Rejected != 1 || s.Errors != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Latency.Mean <= 0 {
		t.Fatal("mean latency not recorded")
	}
}

func TestStatsZeroValue(t *testing.T) {
	m := NewPlainManager("empty", nil)
	s := m.Stats()
	if s.Submitted != 0 || s.Latency.Mean != 0 {
		t.Fatalf("fresh stats = %+v", s)
	}
}

func TestStatsOnEncryptedEngine(t *testing.T) {
	m, pk := newEncrypted(t)
	m.SubmitEncrypted(encUpdate(t, pk, "s1", "sw", 8, tBase()))
	m.SubmitEncrypted(encUpdate(t, pk, "s2", "sw", 40, tBase()))
	s := m.Stats()
	if s.Submitted != 2 || s.Accepted != 1 || s.Rejected != 1 {
		t.Fatalf("encrypted stats = %+v", s)
	}
}
