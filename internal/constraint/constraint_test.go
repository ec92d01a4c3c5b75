package constraint

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"prever/internal/store"
)

var taskSchema = store.MustSchema(
	store.Column{Name: "worker", Kind: store.KindString},
	store.Column{Name: "platform", Kind: store.KindString},
	store.Column{Name: "hours", Kind: store.KindInt},
	store.Column{Name: "ts", Kind: store.KindTime},
)

func t0() time.Time { return time.Date(2022, 3, 29, 12, 0, 0, 0, time.UTC) }

func taskRow(worker, platform string, hours int64, ts time.Time) store.Row {
	return store.Row{
		"worker":   store.String_(worker),
		"platform": store.String_(platform),
		"hours":    store.Int(hours),
		"ts":       store.Time(ts),
	}
}

// testEnv builds an environment with a tasks table containing:
//
//	w1: 10h (now-1h), 20h (now-50h), 30h (now-200h, outside a week)
//	w2: 5h (now-1h)
func testEnv(t testing.TB) *Env {
	t.Helper()
	tbl := store.NewTable("tasks", taskSchema)
	rows := []struct {
		key string
		row store.Row
	}{
		{"t1", taskRow("w1", "uber", 10, t0().Add(-time.Hour))},
		{"t2", taskRow("w1", "lyft", 20, t0().Add(-50*time.Hour))},
		{"t3", taskRow("w1", "uber", 30, t0().Add(-200*time.Hour))},
		{"t4", taskRow("w2", "uber", 5, t0().Add(-time.Hour))},
	}
	for _, r := range rows {
		if err := tbl.Upsert(r.key, r.row); err != nil {
			t.Fatal(err)
		}
	}
	return &Env{
		UpdateName: "u",
		Update: store.Row{
			"worker": store.String_("w1"),
			"hours":  store.Int(8),
			"ts":     store.Time(t0()),
		},
		Tables: map[string]*store.Table{"tasks": tbl},
	}
}

func evalSrc(t *testing.T, src string, env *Env) bool {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	got, err := EvalBool(e, env)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return got
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "a ! b", "#"} {
		if _, err := Parse(src); err == nil {
			t.Fatalf("lexed garbage %q", src)
		}
	}
}

func TestParseBasicShapes(t *testing.T) {
	srcs := []string{
		"u.hours <= 40",
		"u.hours + 2 * u.extra - 1 >= 0",
		"u.kind = 'vaccinated' AND u.age >= 18",
		"NOT (u.x < 1 OR u.y > 2)",
		"u.v BETWEEN 1 AND 10",
		"u.platform IN ('uber', 'lyft')",
		"SUM(tasks.hours) <= 40",
		"COUNT(tasks) < 100",
		"SUM(tasks.hours WHERE tasks.worker = u.worker) + u.hours <= 40",
		"SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) + u.hours <= 40",
		"AVG(tasks.hours) < 20.5",
		"MIN(tasks.hours) >= 0 AND MAX(tasks.hours) <= 24",
		"TRUE OR FALSE",
		"u.note != NULL",
	}
	for _, src := range srcs {
		if _, err := Parse(src); err != nil {
			t.Errorf("parse %q: %v", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	srcs := []string{
		"",
		"u.hours <=",
		"u.hours <= 40 extra",
		"SUM(tasks.hours",
		"SUM() <= 1",
		"SUM(tasks) <= 1",    // SUM needs a column
		"bareident <= 1",     // unqualified reference
		"u.v BETWEEN 1 OR 2", // BETWEEN needs AND
		"u.x IN ()",          // empty IN list
		"SUM(tasks.h WITHIN x HOURS OF u.ts) <= 1", // bad window size
		"SUM(tasks.h WITHIN 5 YEARS OF u.ts) <= 1", // bad unit
	}
	for _, src := range srcs {
		if _, err := Parse(src); err == nil {
			t.Errorf("parsed invalid %q", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) + u.hours <= 40",
		"u.platform IN ('uber', 'lyft') AND u.hours BETWEEN 0 AND 24",
		"NOT (u.a = 1) OR u.b != 'it''s'",
	}
	for _, src := range srcs {
		e1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		e2, err := Parse(e1.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", e1.String(), err)
		}
		if e1.String() != e2.String() {
			t.Errorf("round trip changed: %q vs %q", e1.String(), e2.String())
		}
	}
}

func TestEvalComparisons(t *testing.T) {
	env := testEnv(t)
	cases := map[string]bool{
		"u.hours <= 40":            true,
		"u.hours > 8":              false,
		"u.hours >= 8":             true,
		"u.worker = 'w1'":          true,
		"u.worker != 'w1'":         false,
		"u.hours BETWEEN 1 AND 8":  true,
		"u.hours BETWEEN 9 AND 20": false,
		"u.worker IN ('w1', 'w9')": true,
		"u.worker IN ('w2')":       false,
	}
	for src, want := range cases {
		if got := evalSrc(t, src, env); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalBooleanLogic(t *testing.T) {
	env := testEnv(t)
	cases := map[string]bool{
		"TRUE AND FALSE":                  false,
		"TRUE OR FALSE":                   true,
		"NOT FALSE":                       true,
		"u.hours = 8 AND u.worker = 'w1'": true,
		"u.hours = 9 OR u.worker = 'w1'":  true,
		"NOT (u.hours = 8)":               false,
	}
	for src, want := range cases {
		if got := evalSrc(t, src, env); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	env := testEnv(t)
	// The right operand references a missing field; short-circuiting must
	// avoid evaluating it.
	if !evalSrc(t, "TRUE OR u.missing = 1", env) {
		t.Fatal("OR short circuit failed")
	}
	if evalSrc(t, "FALSE AND u.missing = 1", env) {
		t.Fatal("AND short circuit failed")
	}
}

func TestEvalArithmetic(t *testing.T) {
	env := testEnv(t)
	cases := map[string]bool{
		"u.hours + 2 = 10":    true,
		"u.hours - 10 = -2":   true,
		"u.hours * 5 = 40":    true,
		"u.hours / 2 = 4":     true,
		"-u.hours = -8":       true,
		"2 + 3 * 4 = 14":      true, // precedence
		"(2 + 3) * 4 = 20":    true,
		"u.hours + 0.5 = 8.5": true, // int/float mixing
	}
	for src, want := range cases {
		if got := evalSrc(t, src, env); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	env := testEnv(t)
	srcs := []string{
		"u.missing = 1",
		"u.worker + 1 = 2",     // string arithmetic
		"u.hours / 0 = 1",      // division by zero
		"u.hours AND TRUE",     // non-boolean AND
		"NOT u.hours",          // non-boolean NOT
		"-u.worker = 'x'",      // negate string
		"SUM(nope.hours) <= 1", // unknown table
		"SUM(tasks.nope) <= 1", // unknown column
		"u.worker < 5",         // incomparable kinds
	}
	for _, src := range srcs {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := EvalBool(e, env); err == nil {
			t.Errorf("eval %q succeeded, want error", src)
		}
	}
}

func TestAggregates(t *testing.T) {
	env := testEnv(t)
	cases := map[string]bool{
		"COUNT(tasks) = 4":                                    true,
		"SUM(tasks.hours) = 65":                               true,
		"AVG(tasks.hours) = 16.25":                            true,
		"MIN(tasks.hours) = 5":                                true,
		"MAX(tasks.hours) = 30":                               true,
		"COUNT(tasks WHERE tasks.worker = 'w1') = 3":          true,
		"SUM(tasks.hours WHERE tasks.worker = u.worker) = 60": true,
		"SUM(tasks.hours WHERE tasks.platform = 'uber') = 45": true,
		"COUNT(tasks WHERE tasks.hours > 10) = 2":             true,
	}
	for src, want := range cases {
		if got := evalSrc(t, src, env); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestSlidingWindow(t *testing.T) {
	env := testEnv(t)
	// Within a week of the update: t1 (1h ago, 10h) and t2 (50h ago, 20h);
	// t3 is 200h ago — outside.
	if !evalSrc(t, "SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) = 30", env) {
		t.Fatal("weekly window sum wrong")
	}
	// A 2-hour window only catches t1.
	if !evalSrc(t, "SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 2 HOURS OF u.ts) = 10", env) {
		t.Fatal("2h window sum wrong")
	}
	// The FLSA regulation itself: 30 + 8 <= 40 holds.
	flsa := "SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) + u.hours <= 40"
	if !evalSrc(t, flsa, env) {
		t.Fatal("FLSA should hold for 38 hours")
	}
	// With an 11-hour update it is violated (30 + 11 > 40).
	env.Update["hours"] = store.Int(11)
	if evalSrc(t, flsa, env) {
		t.Fatal("FLSA should fail for 41 hours")
	}
}

func TestWindowInDays(t *testing.T) {
	env := testEnv(t)
	if !evalSrc(t, "SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 7 DAYS OF u.ts) = 30", env) {
		t.Fatal("7-day window differs from 168-hour window")
	}
}

func TestAvgOverEmptySetIsNull(t *testing.T) {
	env := testEnv(t)
	e := MustParse("AVG(tasks.hours WHERE tasks.worker = 'nobody') = 1")
	// NULL = 1 is false (not an error) under Equal semantics.
	got, err := EvalBool(e, env)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("NULL average compared equal")
	}
}

func TestCompileBoundRecognizesLinearForms(t *testing.T) {
	cases := []struct {
		src    string
		nTerms int
		bound  int64
		upper  bool
	}{
		{"u.hours <= 40", 1, 40, true},
		{"SUM(tasks.hours) + u.hours <= 40", 2, 40, true},
		{"2 * u.a - u.b + 5 < 100", 3, 100, true},
		{"COUNT(tasks) >= 3", 1, 3, false},
		{"40 >= u.hours", 1, 40, true}, // flipped spelling
		{"SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) + u.hours <= 40", 2, 40, true},
	}
	for _, c := range cases {
		e := MustParse(c.src)
		b, ok := CompileBound(e)
		if !ok {
			t.Errorf("CompileBound(%q) failed", c.src)
			continue
		}
		if len(b.Terms) != c.nTerms || b.Bound != c.bound || b.UpperBound() != c.upper {
			t.Errorf("CompileBound(%q) = %+v", c.src, b)
		}
	}
}

func TestCompileBoundRejectsNonLinear(t *testing.T) {
	srcs := []string{
		"u.a = 1",                 // equality, not a bound
		"u.a <= u.b",              // non-literal bound
		"u.a * u.b <= 10",         // product of variables
		"AVG(tasks.hours) <= 10",  // non-linear aggregate
		"u.a <= 10 AND u.b <= 20", // conjunction
		"u.a <= 10.5",             // float bound
	}
	for _, src := range srcs {
		if _, ok := CompileBound(MustParse(src)); ok {
			t.Errorf("CompileBound accepted non-linear %q", src)
		}
	}
}

func TestEvalLinearAgreesWithEval(t *testing.T) {
	env := testEnv(t)
	srcs := []string{
		"u.hours <= 40",
		"SUM(tasks.hours WHERE tasks.worker = u.worker) + u.hours <= 40",
		"SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) + u.hours <= 40",
		"COUNT(tasks) >= 3",
		"2 * u.hours - 1 < 100",
	}
	for _, src := range srcs {
		e := MustParse(src)
		form, ok := CompileBound(e)
		if !ok {
			t.Fatalf("CompileBound(%q) failed", src)
		}
		gotLinear, err := evalLinear(form, env)
		if err != nil {
			t.Fatalf("evalLinear(%q): %v", src, err)
		}
		gotEval, err := EvalBool(e, env)
		if err != nil {
			t.Fatal(err)
		}
		if gotLinear != gotEval {
			t.Errorf("%q: linear %v != eval %v", src, gotLinear, gotEval)
		}
	}
}

// Property: for random update hours and thresholds, the linear evaluation
// of the FLSA regulation agrees with the direct AST evaluation.
func TestQuickLinearAgreement(t *testing.T) {
	env := testEnv(t)
	e := MustParse("SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) + u.hours <= 40")
	form, ok := CompileBound(e)
	if !ok {
		t.Fatal("compile failed")
	}
	f := func(h int16) bool {
		env.Update["hours"] = store.Int(int64(h))
		lin, err := evalLinear(form, env)
		if err != nil {
			return false
		}
		ast, err := EvalBool(e, env)
		if err != nil {
			return false
		}
		return lin == ast
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSyntaxErrorMessageHasPosition(t *testing.T) {
	_, err := Parse("u.hours <= ")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Fatalf("error lacks position: %v", err)
	}
}

func BenchmarkParseFLSA(b *testing.B) {
	src := "SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) + u.hours <= 40"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalFLSA(b *testing.B) {
	env := testEnv(b)
	e := MustParse("SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) + u.hours <= 40")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalBool(e, env); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: the parser never panics, whatever bytes it is fed — it either
// returns an AST or an error.
func TestQuickParserNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		e, err := Parse(src)
		if err == nil && e == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: anything that parses, re-parses from its String() rendering to
// the same canonical form.
func TestQuickCanonicalRendering(t *testing.T) {
	seeds := []string{
		"u.a <= 1", "u.a + u.b * 2 >= -3", "NOT u.x = 1 AND u.y != 2",
		"SUM(t.v WHERE t.k = u.k) < 10", "u.s IN ('a','b') OR u.n BETWEEN 1 AND 2",
	}
	for _, src := range seeds {
		e1 := MustParse(src)
		e2 := MustParse(e1.String())
		if e1.String() != e2.String() {
			t.Fatalf("%q: %q != %q", src, e1.String(), e2.String())
		}
	}
}

func TestDeepNestingParses(t *testing.T) {
	src := "u.a = 1"
	for i := 0; i < 50; i++ {
		src = "(" + src + " AND u.b = 2)"
	}
	if _, err := Parse(src); err != nil {
		t.Fatalf("deeply nested expression rejected: %v", err)
	}
}

// evalLinear decides a bound form against an environment in exact integer
// arithmetic: the reading of CompileBound's output that the encrypted and
// token engines implement, checked here against the AST evaluator.
func evalLinear(b *BoundForm, env *Env) (bool, error) {
	var total int64
	for _, t := range b.Terms {
		v := store.Int(1)
		switch {
		case t.UpdateField != "":
			var ok bool
			if v, ok = env.Update[t.UpdateField]; !ok {
				return false, fmt.Errorf("update has no field %s", t.UpdateField)
			}
		case t.Agg != nil:
			var err error
			if v, err = evalAgg(t.Agg, env); err != nil {
				return false, err
			}
		}
		if v.Kind != store.KindInt {
			return false, fmt.Errorf("%s is not an integer", v.Kind)
		}
		total += t.Coeff * v.I
	}
	switch b.Op {
	case OpLte:
		return total <= b.Bound, nil
	case OpLt:
		return total < b.Bound, nil
	case OpGte:
		return total >= b.Bound, nil
	}
	return total > b.Bound, nil
}
