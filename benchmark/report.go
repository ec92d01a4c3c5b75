package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runCfg is how one workload is run.
type runCfg struct {
	seed        int64
	timed, warm time.Duration
	workers     int    // C: generator connections and worker goroutines
	inProcess   bool   // serve the stack from this process instead of a prever-server child
	serverBin   string // built prever-server (process mode)
	workDir     string // scratch directory inside the checkout
	outDir      string // where trace files go
	small       bool   // smoke sizing for engine workloads (tests)
}

// report is the full record of one run of one workload: what the driver
// reads is its last-line form, everything else is for people and for
// `compare`.
type report struct {
	Workload         string               `json:"workload"`
	Trace            bool                 `json:"trace"`
	Seed             int64                `json:"seed"`
	Seconds          float64              `json:"seconds"`
	Correct          bool                 `json:"correct"`
	Attempted        int64                `json:"attempted"`
	Failed           int64                `json:"failed"`
	GeneratorLimited bool                 `json:"generator_limited"`
	Checks           []check              `json:"checks"`
	Metrics          metrics              `json:"metrics"`
	Samples          map[string]int       `json:"samples"`           // sample count behind each percentile
	Windows          map[string][]float64 `json:"windows,omitempty"` // per-window values behind each bounded metric
	Budget           []budgetRow          `json:"budget,omitempty"`
	Notes            map[string]string    `json:"notes,omitempty"`
	Env              map[string]any       `json:"env"`
	values           map[string]float64   // metric values before fill
}

func newReport(name string, cfg runCfg, trace bool) *report {
	return &report{
		Workload: name, Trace: trace, Seed: cfg.seed, Seconds: cfg.timed.Seconds(),
		Samples: map[string]int{}, Windows: map[string][]float64{}, Notes: map[string]string{}, values: map[string]float64{},
		Env: environment(cfg),
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// atReference puts per-window values at the reference host's speed: a
// rate is multiplied by its window's slowdown, a time divided by it. A nil
// slow leaves the values as measured.
func atReference(perWindow, slow []float64, better string) []float64 {
	if slow == nil {
		return perWindow
	}
	out := make([]float64, len(perWindow))
	for w, v := range perWindow {
		if better == higher {
			out[w] = v * slow[w]
		} else {
			out[w] = v / slow[w]
		}
	}
	return out
}

// setWindowed sets a bounded metric to the midmean of its per-window values
// at the reference host's speed. The record keeps the windows as measured.
func (r *report) setWindowed(name string, perWindow, slow []float64, better string) {
	r.Windows[name] = perWindow
	r.set(name, midmean(atReference(perWindow, slow, better)))
}

func (r *report) check(c ...check) { r.Checks = append(r.Checks, c...) }

// finish settles correctness and shapes the metrics: a failed check makes
// every attempted operation count as failed.
func (r *report) finish() {
	declared := map[string]bool{}
	for _, d := range allDefs() {
		declared[d.Name] = true
	}
	for name := range r.values {
		if !declared[name] {
			r.check(check{Name: "declared", Detail: "the run set " + name + ", which spec.go does not declare"})
		}
	}
	r.Correct = r.Failed == 0
	for _, c := range r.Checks {
		if !c.OK {
			r.Correct = false
			r.Failed = r.Attempted
		}
	}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	r.Metrics = fill(defs, r.values)
}

// lastLine is the one JSON object the driver reads from standard output.
func (r *report) lastLine() string {
	b, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings; cannot fail
	}
	return string(b)
}

// workers is C = min(nproc, 4): the whole generator is one process with
// that many connections, goroutines and GOMAXPROCS.
func workerCount() int { return min(runtime.NumCPU(), 4) }

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func (r *report) describe() string {
	s := fmt.Sprintf("%s seed=%d trace=%v correct=%v attempted=%d failed=%d", r.Workload, r.Seed, r.Trace, r.Correct, r.Attempted, r.Failed)
	for _, c := range r.Checks {
		if !c.OK {
			s += fmt.Sprintf("\n  check %s FAILED: %s", c.Name, c.Detail)
		}
	}
	return s
}
