package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"prever/internal/costtest"
)

// plainWithRows is newPlain over rows tasks of 200 workers drawn from a
// Zipf distribution, spread over 60 days, plus the 16 rows of worker
// "probe" that every table holds alike.
func plainWithRows(t testing.TB, rows int) *PlainManager {
	t.Helper()
	m := newPlain(t)
	tbl, _ := m.Table("tasks")
	rng := rand.New(rand.NewSource(int64(rows)))
	zipf := rand.NewZipf(rng, 1.1, 1, 199)
	put := func(key, worker string, ts time.Time) {
		t.Helper()
		if err := tbl.Upsert(key, taskUpdate(key, worker, 1, ts).Row); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rows; i++ {
		put(fmt.Sprintf("t%05d", i), fmt.Sprintf("w%03d", zipf.Uint64()), tBase().Add(-time.Duration(rng.Intn(60*24))*time.Hour))
	}
	for i := 0; i < 16; i++ {
		put(fmt.Sprintf("p%02d", i), "probe", tBase().Add(-time.Duration(i)*48*time.Hour))
	}
	return m
}

// TestPlainCheckCost gates what the baseline's windowed-SUM check costs as
// its table grows: a Submit against 8 192 rows at most 2x the same Submit
// against 512. The aggregate's equality conjunct probes the worker column's
// index, so the check reads the submitting worker's rows only; it reads
// ≈ 1.0x. A check that scans the whole table reads ≈ 24x.
func TestPlainCheckCost(t *testing.T) {
	costtest.Skip(t)
	submits := func(m *PlainManager) func() {
		u := taskUpdate("p-new", "probe", 1, tBase())
		return func() {
			for i := 0; i < 32; i++ {
				if r, err := m.Submit(u); err != nil || !r.Accepted {
					t.Fatalf("Submit = %+v, %v", r, err)
				}
			}
		}
	}
	big, small := submits(plainWithRows(t, 8192)), submits(plainWithRows(t, 512))
	big() // the first probe builds the index
	small()
	r := costtest.Ratio(101, big, small)
	t.Logf("Submit against 8192 rows over 512 rows: %v", r)
	if r.Median > 2 {
		t.Errorf("a Submit against 8192 rows costs %.2fx one against 512 (limit 2x): the check reads the whole table again", r.Median)
	}
}
