package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"prever/internal/api"
	"prever/internal/he"
)

// TestDeclarationMatchesBenchmarkJSON fails when BENCHMARK.json and the
// program's own declaration (spec.go) differ in any name, unit, direction
// or bound, and when a declared name or unit is outside what the driver's
// contract allows.
func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(); !bytes.Equal(onDisk, want) {
		t.Fatalf("BENCHMARK.json differs from spec.go; regenerate it with `bash benchmark/run.sh -spec > BENCHMARK.json`.\nwant:\n%s", want)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, contract allows 2..8", len(workloads))
	}
	for _, w := range allWorkloads() {
		use(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, contract allows 16 and 128", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, d := range allDefs() {
		use(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s: better=%q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestSmoke runs every workload untraced and traced at a fraction of a
// second against an in-process server (4 ZK updates, 32 HE updates; the
// same groups, key sizes and checks as the full run, only fewer
// operations). It proves every declared metric is emitted under its
// declared unit, nothing undeclared is, every check runs and passes, and
// every end-to-end metric is non-zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six workloads twice")
	}
	for _, w := range allWorkloads() {
		for _, trace := range []bool{false, true} {
			name := w.Name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := runCfg{
					seed: 1, timed: 800 * time.Millisecond, warm: 100 * time.Millisecond,
					workers: workerCount(), inProcess: true, small: true, workDir: dir, outDir: dir,
				}
				r, err := runWorkload(w.Name, cfg, trace)
				if err != nil {
					t.Fatal(err)
				}
				if raceEnabled && onlyFailed(r, "budget") {
					t.Skip("the latency budget is a timing check, and the race detector slows requests tenfold")
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Checks) == 0 {
					t.Fatalf("run is not correct:\n%s", r.describe())
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("declared metric %s not emitted", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s emitted in %q, declared in %q", d.Name, m.Unit, d.Unit)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, m.Value)
					}
				}
				if trace {
					if len(r.Budget) == 0 {
						t.Error("traced run printed no latency budget")
					}
					if _, err := os.Stat(dir + "/trace-" + w.Name + ".json"); err != nil {
						t.Errorf("traced run wrote no span file: %v", err)
					}
				}
				if !strings.Contains(r.lastLine(), `"correct":true`) {
					t.Errorf("last line: %s", r.lastLine())
				}
			})
		}
	}
}

// onlyFailed reports whether the named check is the one check that failed.
func onlyFailed(r *report, name string) bool {
	failed := 0
	for _, c := range r.Checks {
		if !c.OK {
			if c.Name != name {
				return false
			}
			failed++
		}
	}
	return failed == 1
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	run := func(goodput, p50 float64) runFile {
		return runFile{Runs: []*report{{Workload: "serve_batch", Metrics: metrics{
			"goodput_ops_s":  {Value: goodput, Unit: "ops/s"},
			"latency_p50_ms": {Value: p50, Unit: "ms"},
		}}}}
	}
	if code := compare(run(1000, 5), run(1050, 5.2)); code != 0 {
		t.Errorf("changes inside the bounds reported as worse")
	}
	if code := compare(run(1000, 5), run(700, 5)); code != 1 {
		t.Errorf("a 30%% goodput drop not reported as worse")
	}
	if code := compare(run(1000, 5), run(1000, 7)); code != 1 {
		t.Errorf("a 40%% latency rise not reported as worse")
	}
}

func TestStragglers(t *testing.T) {
	audit := func(heights ...int) api.AuditResponse {
		return api.AuditResponse{Clean: true, Shards: []api.ShardAudit{{Heights: heights}}}
	}
	for _, c := range []struct {
		heights []int
		want    int
	}{
		{[]int{9, 9, 9, 9}, 0},
		{[]int{2981, 2981, 2981, 255}, 1}, // one wedged replica: 2f+1 still agree
		{[]int{9, 9, 8, 7}, -1},           // no quorum at the top height
	} {
		if got := stragglers(audit(c.heights...)); got != c.want {
			t.Errorf("stragglers(%v) = %d, want %d", c.heights, got, c.want)
		}
	}
}

func TestMidmean(t *testing.T) {
	// The middle half of 1..8 is 3..6; zeros are windows without a sample.
	if got := midmean([]float64{8, 0, 1, 7, 2, 6, 3, 5, 4, 0}); got != 4.5 {
		t.Fatalf("midmean = %v, want 4.5", got)
	}
	if got := midmean([]float64{0, 3}); got != 3 {
		t.Fatalf("midmean of one sample = %v, want 3", got)
	}
	if got := midmean([]float64{9, 2, 4}); got != 4 {
		t.Fatalf("midmean of three = %v, want their median 4", got)
	}
	if got := midmean([]float64{2, 4}); got != 3 {
		t.Fatalf("midmean of two = %v, want 3", got)
	}
	if got := midmean(nil); got != 0 {
		t.Fatalf("midmean of nothing = %v, want 0", got)
	}
}

func TestAtReference(t *testing.T) {
	slow := []float64{2, 1}
	if got := atReference([]float64{50, 100}, slow, higher); got[0] != 100 || got[1] != 100 {
		t.Errorf("rates at reference speed = %v, want [100 100]", got)
	}
	if got := atReference([]float64{8, 4}, slow, lower); got[0] != 4 || got[1] != 4 {
		t.Errorf("times at reference speed = %v, want [4 4]", got)
	}
	if got := atReference([]float64{8, 4}, nil, lower); got[0] != 8 {
		t.Errorf("values without a yardstick = %v, want them as measured", got)
	}
}

// TestKeyStreamGivesOneKey guards engine_he's fixed key: crypto/rand.Prime
// tries to keep callers from depending on its output, and keyStream relies
// on how it does so.
func TestKeyStreamGivesOneKey(t *testing.T) {
	a, err := he.GenerateKey(256, &keyStream{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		b, err := he.GenerateKey(256, &keyStream{})
		if err != nil {
			t.Fatal(err)
		}
		if a.N.Cmp(b.N) != 0 {
			t.Fatalf("generation %d found another key", i)
		}
	}
}

func TestYardstickReads(t *testing.T) {
	y := startYardstick()
	time.Sleep(8 * yardEvery)
	y.halt()
	if len(y.at) < 3 {
		t.Fatalf("%d bursts in %v", len(y.at), 8*yardEvery)
	}
	if s := y.slowdown(0, time.Hour); s < 0.2 || s > 20 {
		t.Errorf("slowdown %v: the burst costs nothing like yardNominal on this machine", s)
	}
	if s := y.slowdown(time.Hour, 2*time.Hour); s != 1 {
		t.Errorf("slowdown of an interval without bursts = %v, want 1", s)
	}
}
