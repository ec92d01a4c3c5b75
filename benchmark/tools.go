package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"text/tabwriter"
)

// runFile is what -out holds when more than one run was made, and what
// `compare` reads.
type runFile struct {
	Runs []*report `json:"runs"`
}

// child runs one workload in a process of its own, so that peak memory,
// GOMAXPROCS and the runtime's state never carry from one run to the next.
func child(workload string, seed int64, seconds float64, trace int) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(buildDir, fmt.Sprintf("record-%d.json", os.Getpid()))
	defer os.Remove(out)
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", strconv.Itoa(trace), "-out", out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // a failed check exits 1 but still writes its record
	b, err := os.ReadFile(out)
	if err != nil {
		return nil, fmt.Errorf("%s: %v (no record written)", workload, runErr)
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// allCmd runs every workload once and prints each metric by name with its
// unit, one JSON object per workload.
func allCmd(seed int64, seconds float64, trace int, out string) int {
	var file runFile
	code := 0
	for _, w := range allWorkloads() {
		r, err := child(w.Name, seed, seconds, trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "prever-benchmark:", err)
			return 1
		}
		file.Runs = append(file.Runs, r)
		line, _ := json.Marshal(map[string]any{
			"workload": r.Workload, "correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed,
			"generator_limited": r.GeneratorLimited, "metrics": r.Metrics, "budget": r.Budget,
		})
		fmt.Println(string(line))
		if !r.Correct {
			code = 1
		}
	}
	if out == "" {
		out = filepath.Join("benchmark", "out", fmt.Sprintf("all-trace%d.json", trace))
	}
	if err := writeJSON(out, file); err != nil {
		fmt.Fprintln(os.Stderr, "prever-benchmark:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "full record:", out)
	return code
}

// byCell groups the untraced or traced runs' values by workload and metric.
func (f runFile) byCell() map[string]map[string][]float64 {
	cells := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if cells[r.Workload] == nil {
			cells[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			cells[r.Workload][name] = append(cells[r.Workload][name], m.Value)
		}
	}
	return cells
}

func allDefs() []metricDef { return append(append([]metricDef(nil), endToEnd...), perLayer...) }

// calibrateCmd runs k full untraced sets, each on its own seed, and prints
// per workload and end-to-end metric the median, the quartiles and the
// spread (interquartile range over median) next to the declared bound and
// the bound the rule max(10 %, 2 × spread) would give.
func calibrateCmd(k int, seed int64, seconds float64, out string) int {
	var file runFile
	for i := 0; i < k; i++ {
		for _, w := range allWorkloads() {
			r, err := child(w.Name, seed+int64(i), seconds, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prever-benchmark:", err)
				return 1
			}
			file.Runs = append(file.Runs, r)
		}
	}
	if out == "" {
		out = filepath.Join("benchmark", "out", "calibrate.json")
	}
	if err := writeJSON(out, file); err != nil {
		fmt.Fprintln(os.Stderr, "prever-benchmark:", err)
		return 1
	}
	cells := file.byCell()
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tq1\tmedian\tq3\tspread\tbound\t2xspread\t")
	for _, w := range allWorkloads() {
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(cells[w.Name][d.Name])
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.1f%%\t%.0f%%\t%.0f%%\t\n",
				w.Name, d.Name, d.Unit, q1, q2, q3, spread*100, d.Bound*100, max(10, 200*spread))
		}
	}
	_ = tw.Flush() // a table on standard output; nothing to do if the terminal is gone
	incorrect := 0
	for _, r := range file.Runs {
		if !r.Correct {
			incorrect++
			fmt.Println(r.describe())
		}
	}
	fmt.Printf("%d runs, %d incorrect; full record: %s\n", len(file.Runs), incorrect, out)
	if incorrect > 0 {
		return 1
	}
	return 0
}

func readRuns(path string) (runFile, error) {
	var f runFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 { // a single run's record
		var r report
		if err := json.Unmarshal(b, &r); err != nil || r.Workload == "" {
			return f, fmt.Errorf("%s: no runs in file", path)
		}
		f.Runs = []*report{&r}
	}
	return f, nil
}

// compareCmd prints, per workload and metric, the median of each file's
// runs, the change from A to B, the metric's bound and a verdict: "worse"
// or "better" when the change exceeds the bound in that direction,
// "within" otherwise. Per-layer metrics carry no bound and get no verdict.
// It exits 1 when anything is worse.
func compareCmd(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: prever-benchmark compare A.json B.json")
		return 2
	}
	a, err := readRuns(args[0])
	if err == nil {
		var b runFile
		if b, err = readRuns(args[1]); err == nil {
			return compare(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "prever-benchmark:", err)
	return 2
}

func compare(a, b runFile) int {
	ca, cb := a.byCell(), b.byCell()
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA\tB\tdelta\tbound\tverdict\t")
	worse := 0
	names := make([]string, 0, len(ca))
	for w := range ca {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		for _, d := range allDefs() {
			va, okA := ca[w][d.Name]
			vb, okB := cb[w][d.Name]
			if !okA || !okB {
				continue
			}
			ma, mb := median(va), median(vb)
			if ma == 0 && mb == 0 {
				continue // a layer this workload bypasses
			}
			delta := 0.0
			if ma != 0 {
				delta = (mb - ma) / ma
			}
			verdict, bound := "", "-"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", d.Bound*100)
				bad := delta
				if d.Better == higher {
					bad = -delta
				}
				switch {
				case bad > d.Bound:
					verdict = "worse"
					worse++
				case bad < -d.Bound:
					verdict = "better"
				default:
					verdict = "within"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%+.1f%%\t%s\t%s\t\n", w, d.Name, d.Unit, ma, mb, delta*100, bound, verdict)
		}
	}
	_ = tw.Flush() // a table on standard output; nothing to do if the terminal is gone
	if worse > 0 {
		fmt.Printf("%d metric(s) worse than their bound\n", worse)
		return 1
	}
	return 0
}
