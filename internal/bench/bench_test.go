package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		ID:     "EX",
		Title:  "example",
		Notes:  "a note",
		Header: []string{"col1", "column-two"},
	}
	tbl.AddRow("a", "b")
	tbl.AddRow("longer-cell", "c")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"EX", "example", "a note", "col1", "longer-cell"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// The E2 table must carry histogram percentiles for every row.
func TestE2Percentiles(t *testing.T) {
	tbl, err := E2Verify(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"p50", "p95", "p99"} {
		found := false
		for _, h := range tbl.Header {
			if h == col {
				found = true
			}
		}
		if !found {
			t.Fatalf("E2 header missing %q: %v", col, tbl.Header)
		}
	}
	// Every measured row (not an n/a or error placeholder) has real
	// percentile cells, e.g. "12.3 µs", never empty.
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(tbl.Header))
		}
		measured := !strings.HasPrefix(row[2], "n/a") && !strings.HasPrefix(row[2], "error")
		for _, cell := range row[3:] {
			if cell == "" {
				t.Fatalf("row %d has an empty percentile cell: %v", i, row)
			}
			if measured && cell == "-" {
				t.Fatalf("measured row %d missing percentiles: %v", i, row)
			}
		}
	}
}

// Each experiment must run to completion at Quick scale and produce a
// non-empty table. These are the smoke tests that keep the harness honest;
// cmd/prever-bench runs the Full scale.

func runExperiment(t *testing.T, name string, fn func(Scale) (*Table, error)) {
	t.Helper()
	tbl, err := fn(Quick)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s produced no rows", name)
	}
	if len(tbl.Header) == 0 {
		t.Fatalf("%s has no header", name)
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("%s row %d has %d cells for %d columns", name, i, len(row), len(tbl.Header))
		}
	}
}

func TestE1YCSB(t *testing.T)      { runExperiment(t, "E1", E1YCSB) }
func TestE2Verify(t *testing.T)    { runExperiment(t, "E2", E2Verify) }
func TestE3Federated(t *testing.T) { runExperiment(t, "E3", E3Federated) }
func TestE4Consensus(t *testing.T) { runExperiment(t, "E4", E4Consensus) }
func TestE5Integrity(t *testing.T) { runExperiment(t, "E5", E5Integrity) }
func TestE6PIR(t *testing.T)       { runExperiment(t, "E6", E6PIR) }
func TestE7DP(t *testing.T)        { runExperiment(t, "E7", E7DP) }
func TestE11Crypto(t *testing.T)   { runExperiment(t, "E11", E11Crypto) }

func TestE8AdversaryAllDetected(t *testing.T) {
	tbl, err := E8Adversary(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 7 {
		t.Fatalf("only %d attacks exercised", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[2] != "YES" {
			t.Fatalf("attack %q went undetected", row[0])
		}
	}
}

func TestE7ShowsBatchedBeatsNaive(t *testing.T) {
	tbl, err := E7DP(Quick)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 is naive, rows 1-2 batched; batched must absorb strictly more.
	naive := tbl.Rows[0][1]
	batched := tbl.Rows[2][1]
	if naive >= batched && len(naive) >= len(batched) {
		t.Fatalf("naive (%s) absorbed at least as much as batched W=100 (%s)", naive, batched)
	}
}

func TestE1TPCC(t *testing.T) { runExperiment(t, "E1b", E1TPCC) }
