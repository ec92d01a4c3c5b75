package constraint

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"prever/internal/store"
)

var probeSchema = store.MustSchema(
	store.Column{Name: "worker", Kind: store.KindString},
	store.Column{Name: "grp", Kind: store.KindInt},
	store.Column{Name: "hours", Kind: store.KindInt},
	store.Column{Name: "pay", Kind: store.KindFloat},
	store.Column{Name: "ts", Kind: store.KindTime},
)

// probeCases are aggregates an equality probe may answer (probe) or must
// leave to the full scan.
var probeCases = []struct {
	src   string
	probe bool
}{
	{"COUNT(t WHERE t.worker = u.worker)", true},
	{"SUM(t.hours WHERE t.worker = u.worker)", true},
	{"SUM(t.pay WHERE t.worker = u.worker)", true},
	{"AVG(t.hours WHERE t.worker = u.worker)", true},
	{"AVG(t.pay WHERE t.worker = u.worker)", true},
	{"MIN(t.hours WHERE t.worker = u.worker)", true},
	{"MAX(t.hours WHERE t.worker = u.worker)", true},
	{"MIN(t.pay WHERE t.worker = u.worker)", true},
	{"MAX(t.pay WHERE t.worker = u.worker)", true},
	{"SUM(t.pay WHERE t.grp = u.grp)", true},
	{"COUNT(t WHERE t.worker = 'w3')", true},
	{"SUM(t.hours WHERE t.grp = u.grp + 1 - 1)", true},
	// A Float probe of an Int column: Int(2) equals Float(2).
	{"SUM(t.pay WHERE t.grp = u.fgrp)", true},
	{"SUM(t.pay WHERE t.grp >= 0 AND u.worker = t.worker AND t.grp >= 1)", true},
	{"SUM(t.hours WHERE t.grp <= 3 AND (t.worker = u.worker AND t.grp = u.grp))", true},
	{"SUM(t.hours WHERE t.worker = u.worker WITHIN 48 HOURS OF u.ts)", true},
	{"AVG(t.pay WHERE t.grp = u.grp WITHIN 100 HOURS OF u.ts)", true},
	{"SUM(t.pay WHERE t.worker = u.worker AND t.grp >= MIN(t.grp WHERE t.worker = u.worker) + 1)", true},
	{"COUNT(t WHERE t.worker = u.worker AND t.grp = MAX(t.grp WHERE t.grp = u.grp))", true},
	{"SUM(t.hours WHERE t.worker = u.worker OR t.grp = 1)", false},
	{"SUM(t.hours WHERE NOT (t.worker != u.worker))", false},
	{"SUM(t.hours WHERE t.worker = t.worker)", false},
	{"SUM(t.hours WHERE t.grp = COUNT(t))", false},
	{"SUM(t.hours)", false},
}

// fullScan rebuilds e with every aggregate's WHERE wrapped in NOT NOT,
// which keeps its value and its errors but hides its conjuncts from the
// probe: the same evaluator then visits every row.
func fullScan(e Expr) Expr {
	switch n := e.(type) {
	case *Agg:
		c := *n
		if c.Where != nil {
			c.Where = &Not{X: &Not{X: fullScan(c.Where)}}
		}
		if c.Window != nil {
			w := *c.Window
			w.Anchor = fullScan(w.Anchor)
			c.Window = &w
		}
		return &c
	case *Binary:
		return &Binary{Op: n.Op, L: fullScan(n.L), R: fullScan(n.R)}
	case *Not:
		return &Not{X: fullScan(n.X)}
	case *Neg:
		return &Neg{X: fullScan(n.X)}
	case *Between:
		return &Between{X: fullScan(n.X), Lo: fullScan(n.Lo), Hi: fullScan(n.Hi)}
	case *In:
		list := make([]Expr, len(n.List))
		for i, item := range n.List {
			list[i] = fullScan(item)
		}
		return &In{X: fullScan(n.X), List: list}
	default:
		return e
	}
}

// Every aggregate evaluates to the same value by index and by full scan,
// on seeded random tables whose rows move between groups after the
// index is built. The probe skips rows outside its bucket, so it may
// miss an error such a row would raise, never add one: where the full
// scan succeeds the probe must match it bit for bit.
func TestProbeMatchesFullScan(t *testing.T) {
	start := time.Date(2022, 3, 28, 0, 0, 0, 0, time.UTC)
	nullable := func(rng *rand.Rand, v store.Value) store.Value {
		if rng.Intn(10) == 0 {
			return store.Null()
		}
		return v
	}
	row := func(rng *rand.Rand) store.Row {
		return store.Row{
			"worker": nullable(rng, store.String_(fmt.Sprintf("w%d", rng.Intn(8)))),
			"grp":    store.Int(int64(rng.Intn(5))),
			"hours":  nullable(rng, store.Int(int64(rng.Intn(12)))),
			"pay":    nullable(rng, store.Float(rng.Float64()*100)),
			"ts":     store.Time(start.Add(time.Duration(rng.Intn(240)) * time.Hour)),
		}
	}
	exprs := make([]Expr, len(probeCases))
	full := make([]Expr, len(probeCases))
	for i, c := range probeCases {
		e, err := Parse(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		exprs[i], full[i] = e, fullScan(e)
	}
	agreed, probed := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := store.NewTable("t", probeSchema)
		for i := 0; i < 150; i++ {
			if err := tbl.Upsert(fmt.Sprintf("k%03d", rng.Intn(200)), row(rng)); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 3; round++ {
			for q := 0; q < 6; q++ {
				u := row(rng)
				u["fgrp"] = store.Float(float64(u["grp"].I))
				env := &Env{Update: u, Tables: map[string]*store.Table{"t": tbl}}
				for i, c := range probeCases {
					a := exprs[i].(*Agg)
					if _, _, ok := eqProbe(a.Where, a.Table, env); ok != c.probe {
						t.Fatalf("%s: probe %v, want %v", c.src, ok, c.probe)
					}
					got, gotErr := Eval(exprs[i], env)
					want, wantErr := Eval(full[i], env)
					switch {
					case wantErr == nil && (gotErr != nil || got != want):
						t.Fatalf("seed %d round %d: %s = %v, %v by probe; %v by full scan (update %v)",
							seed, round, c.src, got, gotErr, want, u)
					case wantErr == nil:
						agreed++
						if c.probe {
							probed++
						}
					}
				}
			}
			// Move a third of the rows: other groups, NULL cells, new keys.
			for i := 0; i < 50; i++ {
				if err := tbl.Upsert(fmt.Sprintf("k%03d", rng.Intn(200)), row(rng)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// NULL cells make some comparisons fail; most evaluations must not.
	if total := 8 * 3 * 6 * len(probeCases); agreed < total*3/4 || probed < agreed/2 {
		t.Fatalf("only %d of %d evaluations succeeded, %d by probe", agreed, total, probed)
	}
	t.Logf("%d evaluations agreed, %d of them by probe", agreed, probed)
}
