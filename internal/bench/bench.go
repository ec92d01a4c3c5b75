// Package bench is the experiment harness: it regenerates every table the
// evaluation methodology of the paper prescribes (see DESIGN.md §3 for the
// experiment index E1–E11 and EXPERIMENTS.md for recorded results). Each
// experiment returns a Table; cmd/prever-bench prints them all, and the
// root-level Go benchmarks wrap the same code paths as testing.B targets.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"prever/internal/core"
)

// Table is one experiment's output, printable as an aligned text table.
type Table struct {
	ID     string
	Title  string
	Notes  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Notes != "" {
		fmt.Fprintf(w, "   %s\n", t.Notes)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Scale selects experiment sizes.
type Scale int

// Experiment scales.
const (
	// Quick runs in seconds; used by tests and smoke runs.
	Quick Scale = iota
	// Full runs the sizes recorded in EXPERIMENTS.md.
	Full
)

// opsRate formats operations/second.
func opsRate(n int, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.0f", float64(n)/d.Seconds())
}

// perOp formats time per operation.
func perOp(n int, d time.Duration) string {
	if n == 0 {
		return "-"
	}
	return fmtDur(time.Duration(float64(d) / float64(n)))
}

// fmtDur formats a single latency with the same unit scaling as perOp.
func fmtDur(d time.Duration) string {
	us := d.Seconds() * 1e6
	switch {
	case us >= 10000:
		return fmt.Sprintf("%.1f ms", us/1000)
	case us >= 1:
		return fmt.Sprintf("%.1f µs", us)
	default:
		return fmt.Sprintf("%.0f ns", us*1000)
	}
}

// latencyCells renders an engine's latency histogram as the p50/p95/p99
// table cells every E2 row carries.
func latencyCells(s core.Stats) []string {
	l := s.Latency
	if l.Count == 0 {
		return []string{"-", "-", "-"}
	}
	return []string{fmtDur(l.P50), fmtDur(l.P95), fmtDur(l.P99)}
}

// naLatencyCells pads a row that has no engine behind it.
func naLatencyCells() []string { return []string{"-", "-", "-"} }

// Run executes every experiment in E-number order and prints its table.
func Run(w io.Writer, scale Scale) error {
	for _, exp := range []func(Scale) (*Table, error){
		E1YCSB,
		E1TPCC,
		E2Verify,
		E3Federated,
		E4Consensus,
		E5Integrity,
		E6PIR,
		E7DP,
		E8Adversary,
		E10Recovery,
		E11Crypto,
	} {
		t, err := exp(scale)
		if err != nil {
			return err
		}
		t.Fprint(w)
	}
	return nil
}
