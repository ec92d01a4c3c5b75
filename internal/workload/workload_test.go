package workload

import (
	"testing"
	"time"
)

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 0.99, 1); err == nil {
		t.Fatal("empty domain accepted")
	}
	if _, err := NewZipf(10, 0, 1); err == nil {
		t.Fatal("theta=0 accepted")
	}
	if _, err := NewZipf(10, 1, 1); err == nil {
		t.Fatal("theta=1 accepted")
	}
}

func TestZipfInRangeAndSkewed(t *testing.T) {
	z, err := NewZipf(1000, 0.99, 42)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	counts := make(map[uint64]int)
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("zipf sample %d out of range", v)
		}
		counts[v]++
	}
	// Key 0 must be by far the hottest; with theta=.99 it draws ~10%+.
	if counts[0] < n/20 {
		t.Fatalf("hottest key drew only %d/%d samples", counts[0], n)
	}
	// The distribution must not be degenerate.
	if len(counts) < 50 {
		t.Fatalf("only %d distinct keys sampled", len(counts))
	}
}

func TestZipfDeterministic(t *testing.T) {
	a, _ := NewZipf(100, 0.99, 7)
	b, _ := NewZipf(100, 0.99, 7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestUniform(t *testing.T) {
	if _, err := NewUniform(0, 1); err == nil {
		t.Fatal("empty domain accepted")
	}
	u, _ := NewUniform(10, 3)
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		v := u.Next()
		if v >= 10 {
			t.Fatalf("uniform sample %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("uniform covered only %d/10 values", len(seen))
	}
}

func TestYCSBValidation(t *testing.T) {
	if _, err := NewYCSB(YCSBConfig{Workload: YCSBA, RecordCount: 0}); err == nil {
		t.Fatal("zero records accepted")
	}
	if _, err := NewYCSB(YCSBConfig{Workload: "Z", RecordCount: 10}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestYCSBMixes(t *testing.T) {
	const n = 10000
	cases := []struct {
		w        YCSBWorkload
		expected map[OpType]float64 // fraction, +-0.03
	}{
		{YCSBA, map[OpType]float64{OpRead: 0.5, OpUpdate: 0.5}},
		{YCSBB, map[OpType]float64{OpRead: 0.95, OpUpdate: 0.05}},
		{YCSBC, map[OpType]float64{OpRead: 1.0}},
		{YCSBD, map[OpType]float64{OpRead: 0.95, OpInsert: 0.05}},
		{YCSBE, map[OpType]float64{OpScan: 0.95, OpInsert: 0.05}},
		{YCSBF, map[OpType]float64{OpRead: 0.5, OpReadModifyWrite: 0.5}},
	}
	for _, c := range cases {
		g, err := NewYCSB(YCSBConfig{Workload: c.w, RecordCount: 1000, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[OpType]int)
		for _, op := range g.Generate(n) {
			counts[op.Type]++
			if op.Key == "" {
				t.Fatalf("workload %s produced empty key", c.w)
			}
			if (op.Type == OpUpdate || op.Type == OpInsert || op.Type == OpReadModifyWrite) && len(op.Value) == 0 {
				t.Fatalf("workload %s write without value", c.w)
			}
			if op.Type == OpScan && op.ScanLen < 1 {
				t.Fatalf("workload %s scan without length", c.w)
			}
		}
		for ot, frac := range c.expected {
			got := float64(counts[ot]) / n
			if got < frac-0.03 || got > frac+0.03 {
				t.Errorf("workload %s: %s fraction = %.3f, want ~%.2f", c.w, ot, got, frac)
			}
		}
	}
}

func TestYCSBInsertsAreFreshKeys(t *testing.T) {
	g, _ := NewYCSB(YCSBConfig{Workload: YCSBD, RecordCount: 100, Seed: 2})
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Key(i)] = true
	}
	for _, op := range g.Generate(5000) {
		if op.Type == OpInsert {
			if seen[op.Key] {
				t.Fatalf("insert reused key %s", op.Key)
			}
			seen[op.Key] = true
		}
	}
}

func TestYCSBDeterministic(t *testing.T) {
	a, _ := NewYCSB(YCSBConfig{Workload: YCSBA, RecordCount: 100, Seed: 9})
	b, _ := NewYCSB(YCSBConfig{Workload: YCSBA, RecordCount: 100, Seed: 9})
	opsA := a.Generate(200)
	opsB := b.Generate(200)
	for i := range opsA {
		if opsA[i].Type != opsB[i].Type || opsA[i].Key != opsB[i].Key {
			t.Fatal("same seed produced different op streams")
		}
	}
}

func TestTPCCMix(t *testing.T) {
	g, err := NewTPCC(TPCCConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	counts := make(map[TxType]int)
	for i := 0; i < n; i++ {
		tx := g.Next()
		counts[tx.Type]++
		switch tx.Type {
		case TxNewOrder:
			if len(tx.Lines) < 5 || len(tx.Lines) > 15 {
				t.Fatalf("new order with %d lines", len(tx.Lines))
			}
		case TxPayment:
			if tx.Amount < 100 {
				t.Fatalf("payment of %d cents", tx.Amount)
			}
		}
	}
	if f := float64(counts[TxNewOrder]) / n; f < 0.42 || f > 0.48 {
		t.Errorf("new-order fraction %.3f", f)
	}
	if f := float64(counts[TxPayment]) / n; f < 0.40 || f > 0.46 {
		t.Errorf("payment fraction %.3f", f)
	}
}

func TestCrowdworkTrace(t *testing.T) {
	g, err := NewCrowdwork(CrowdworkConfig{Workers: 10, Platforms: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	events := g.Generate(500)
	if len(events) != 500 {
		t.Fatalf("generated %d events", len(events))
	}
	workers := map[string]bool{}
	platforms := map[string]bool{}
	for i, e := range events {
		if e.Hours < 1 || e.Hours > 8 {
			t.Fatalf("event hours = %d", e.Hours)
		}
		workers[e.Worker] = true
		platforms[e.Platform] = true
		if i > 0 && e.TS.Before(events[i-1].TS) {
			t.Fatal("events not time-ordered")
		}
	}
	if len(workers) != 10 || len(platforms) != 2 {
		t.Fatalf("coverage: %d workers, %d platforms", len(workers), len(platforms))
	}
}

func TestCrowdworkHotWorkersSkew(t *testing.T) {
	g, err := NewCrowdwork(CrowdworkConfig{Workers: 100, HotWorkers: true, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, e := range g.Generate(2000) {
		counts[e.Worker]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Zipfian: the hottest worker should dominate (>> 2000/100 = 20).
	if max < 100 {
		t.Fatalf("hottest worker has only %d/2000 tasks; not skewed", max)
	}
}

func TestCrowdworkIDsUnique(t *testing.T) {
	g, _ := NewCrowdwork(CrowdworkConfig{Seed: 1})
	seen := map[string]bool{}
	for _, e := range g.Generate(100) {
		if seen[e.ID] {
			t.Fatalf("duplicate task id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestCrowdworkWindowFitsSpan(t *testing.T) {
	start := time.Date(2022, 3, 28, 0, 0, 0, 0, time.UTC)
	g, _ := NewCrowdwork(CrowdworkConfig{Start: start, Span: 24 * time.Hour, Seed: 2})
	for _, e := range g.Generate(100) {
		if e.TS.Before(start) || e.TS.After(start.Add(24*time.Hour)) {
			t.Fatalf("event at %v outside span", e.TS)
		}
	}
}

func BenchmarkZipfNext(b *testing.B) {
	z, _ := NewZipf(1<<20, 0.99, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}

func BenchmarkYCSBNext(b *testing.B) {
	g, _ := NewYCSB(YCSBConfig{Workload: YCSBA, RecordCount: 10000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
