package prever_test

import (
	"fmt"
	"log"
	"time"

	"prever"
)

// ExampleNewPlainManager shows the Figure-2 pipeline: define a regulation,
// submit updates, watch the constraint bite, audit the ledger.
func ExampleNewPlainManager() {
	tasks, err := prever.NewTable("tasks",
		prever.Column{Name: "worker", Kind: prever.KindString},
		prever.Column{Name: "hours", Kind: prever.KindInt},
		prever.Column{Name: "ts", Kind: prever.KindTime},
	)
	if err != nil {
		log.Fatal(err)
	}
	flsa, err := prever.NewConstraint("flsa",
		"SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) + u.hours <= 40",
		prever.Regulation, prever.Public, "dol")
	if err != nil {
		log.Fatal(err)
	}
	m := prever.NewPlainManager("example")
	m.AddTable(tasks)
	m.AddConstraint(flsa)

	base := time.Date(2022, 3, 28, 9, 0, 0, 0, time.UTC)
	for i, hours := range []int64{30, 10, 1} {
		r, err := m.Submit(prever.Update{
			ID: fmt.Sprintf("t%d", i), Table: "tasks", Key: fmt.Sprintf("t%d", i),
			Row: prever.Row{
				"worker": prever.Str("w1"),
				"hours":  prever.Int(hours),
				"ts":     prever.Time(base),
			},
			TS: base,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%2dh accepted=%v\n", hours, r.Accepted)
	}
	rep := prever.AuditLedger(m.Ledger().Export(), m.Ledger().Digest())
	fmt.Println("audit clean =", rep.Clean())
	// Output:
	// 30h accepted=true
	// 10h accepted=true
	//  1h accepted=false
	// audit clean = true
}

// ExampleNewZKBoundManagerWithGroup shows the proof-carrying RC1 engine:
// the owner proves its running total stays within a public bound; the
// untrusted manager verifies without seeing any value.
func ExampleNewZKBoundManagerWithGroup() {
	setup, err := prever.NewZKBoundManagerWithGroup("cap", 100, prever.TestGroup())
	if err != nil {
		log.Fatal(err)
	}
	for i, v := range []int64{60, 40} {
		u, err := setup.Owner.ProduceUpdate(fmt.Sprintf("u%d", i), "org", "org", v)
		if err != nil {
			log.Fatal(err)
		}
		r, err := setup.Manager.SubmitZK(u)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("+%d accepted=%v\n", v, r.Accepted)
	}
	// One more unit would exceed the cap; the owner cannot even produce
	// the proof.
	if _, err := setup.Owner.ProduceUpdate("u2", "org", "org", 1); err != nil {
		fmt.Println("owner refuses the 101st unit")
	}
	// Output:
	// +60 accepted=true
	// +40 accepted=true
	// owner refuses the 101st unit
}

// ExampleNewMPCFederationSetup shows federated enforcement without any
// shared plaintext: three platforms jointly check a 40-unit cap.
func ExampleNewMPCFederationSetup() {
	setup, err := prever.NewMPCFederationSetup("cap", 40, 0, []string{"a", "b", "c"}, 256)
	if err != nil {
		log.Fatal(err)
	}
	fed := setup.Federation
	now := time.Date(2022, 3, 28, 0, 0, 0, 0, time.UTC)
	for i, task := range []struct {
		platform string
		units    int64
	}{{"a", 20}, {"b", 20}, {"c", 1}} {
		r, err := fed.SubmitTask(prever.TaskSubmission{
			ID: fmt.Sprintf("t%d", i), Worker: "w", Platform: task.platform,
			Hours: task.units, TS: now,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s +%d accepted=%v\n", task.platform, task.units, r.Accepted)
	}
	// Output:
	// a +20 accepted=true
	// b +20 accepted=true
	// c +1 accepted=false
}

// ExampleParseConstraint shows the constraint language round trip.
func ExampleParseConstraint() {
	e, err := prever.ParseConstraint("u.hours BETWEEN 0 AND 24 AND u.platform IN ('uber', 'lyft')")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(e)
	// Output:
	// ((u.hours BETWEEN 0 AND 24) AND (u.platform IN ('uber', 'lyft')))
}

// ExamplePlainManager_Query shows constraint-language queries with `r`
// bound to each row.
func ExamplePlainManager_Query() {
	tasks, _ := prever.NewTable("tasks",
		prever.Column{Name: "worker", Kind: prever.KindString},
		prever.Column{Name: "hours", Kind: prever.KindInt},
		prever.Column{Name: "ts", Kind: prever.KindTime},
	)
	m := prever.NewPlainManager("q")
	m.AddTable(tasks)
	now := time.Date(2022, 3, 28, 0, 0, 0, 0, time.UTC)
	for i, h := range []int64{3, 12, 7} {
		m.Submit(prever.Update{
			ID: fmt.Sprintf("t%d", i), Table: "tasks", Key: fmt.Sprintf("t%d", i),
			Row: prever.Row{"worker": prever.Str("w"), "hours": prever.Int(h), "ts": prever.Time(now)},
			TS:  now,
		})
	}
	rows, err := m.Query("tasks", "r.hours > 5")
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Println(r.Key, r.Row["hours"].I)
	}
	// Output:
	// t1 12
	// t2 7
}
