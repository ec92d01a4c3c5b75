package dp

import (
	"math"
	"testing"
)

func TestLaplaceBasicStats(t *testing.T) {
	const n = 20000
	const scale = 2.0
	sum, absSum := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := Laplace(scale)
		sum += x
		absSum += math.Abs(x)
	}
	mean := sum / n
	meanAbs := absSum / n
	// Laplace(0, b): mean 0, E|X| = b.
	if math.Abs(mean) > 0.15 {
		t.Fatalf("sample mean = %v, want ~0", mean)
	}
	if math.Abs(meanAbs-scale) > 0.2 {
		t.Fatalf("sample E|X| = %v, want ~%v", meanAbs, scale)
	}
}

func TestAccountantSpendAndExhaust(t *testing.T) {
	a, err := NewAccountant(1.0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.Spend(0.1); err != nil {
			t.Fatalf("spend %d: %v", i, err)
		}
	}
	if err := a.Spend(0.01); err != ErrBudgetExhausted {
		t.Fatalf("over-budget spend err = %v", err)
	}
	if r := (a.total - a.spent); math.Abs(r) > 1e-9 {
		t.Fatalf("remaining = %v", r)
	}
	if s := a.spent; math.Abs(s-1.0) > 1e-9 {
		t.Fatalf("spent = %v", s)
	}
}

func TestAccountantValidation(t *testing.T) {
	if _, err := NewAccountant(0); err == nil {
		t.Fatal("zero budget accepted")
	}
	a, _ := NewAccountant(1)
	if err := a.Spend(-0.5); err == nil {
		t.Fatal("negative spend accepted")
	}
	if err := a.Spend(0); err == nil {
		t.Fatal("zero spend accepted")
	}
}

func newIndex(t testing.TB, policy RefreshPolicy, batch int, budget float64) *Index {
	t.Helper()
	acct, err := NewAccountant(budget)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndex(IndexConfig{
		Domain:     100,
		Buckets:    10,
		EpsPerPub:  0.1,
		Policy:     policy,
		BatchSize:  batch,
		Accountant: acct,
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestIndexValidation(t *testing.T) {
	acct, _ := NewAccountant(1)
	bad := []IndexConfig{
		{Domain: 0, Buckets: 1, EpsPerPub: 0.1, Accountant: acct},
		{Domain: 10, Buckets: 0, EpsPerPub: 0.1, Accountant: acct},
		{Domain: 10, Buckets: 20, EpsPerPub: 0.1, Accountant: acct},
		{Domain: 10, Buckets: 5, EpsPerPub: 0, Accountant: acct},
		{Domain: 10, Buckets: 5, EpsPerPub: 0.1, Policy: Batched, BatchSize: 0, Accountant: acct},
		{Domain: 10, Buckets: 5, EpsPerPub: 0.1},
	}
	for i, cfg := range bad {
		if _, err := NewIndex(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestNaivePolicyExhaustsBudgetLinearly(t *testing.T) {
	// Budget 1.0, 0.1 per publication, one initial publication: the naive
	// policy supports exactly 9 inserts.
	idx := newIndex(t, PerUpdate, 0, 1.0)
	inserted := 0
	for i := 0; i < 100; i++ {
		if err := idx.Insert(int64(i % 100)); err != nil {
			if err != ErrBudgetExhausted {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		inserted++
	}
	if inserted != 9 {
		t.Fatalf("naive policy absorbed %d inserts, want 9", inserted)
	}
}

func TestBatchedPolicyStretchesBudget(t *testing.T) {
	// Same budget, batch of 10: supports 10x the inserts minus the batch
	// granularity.
	idx := newIndex(t, Batched, 10, 1.0)
	inserted := 0
	for i := 0; i < 1000; i++ {
		if err := idx.Insert(int64(i % 100)); err != nil {
			break
		}
		inserted++
	}
	if inserted < 90 {
		t.Fatalf("batched policy absorbed only %d inserts", inserted)
	}
	if idx.Publications() > 10 {
		t.Fatalf("batched policy published %d times", idx.Publications())
	}
}

func TestBatchedStalenessIsVisible(t *testing.T) {
	idx := newIndex(t, Batched, 10, 10.0)
	if idx.stale {
		t.Fatal("fresh index reports stale")
	}
	idx.Insert(5)
	if !idx.stale {
		t.Fatal("index with unpublished insert should be stale")
	}
	for i := 0; i < 9; i++ {
		idx.Insert(5)
	}
	if idx.stale {
		t.Fatal("index should be fresh after a batch publication")
	}
}

func TestRangeCountTracksTruthApproximately(t *testing.T) {
	acct, _ := NewAccountant(100)
	idx, err := NewIndex(IndexConfig{
		Domain: 100, Buckets: 10, EpsPerPub: 5, // low noise
		Policy: Batched, BatchSize: 1000, Accountant: acct,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 500 values in [0,50), 100 in [50,100); publish once at the end.
	for i := 0; i < 499; i++ {
		idx.Insert(int64(i % 50))
	}
	for i := 0; i < 100; i++ {
		idx.Insert(int64(50 + i%50))
	}
	// Force a publication by filling the batch.
	for idx.stale {
		idx.Insert(0)
	}
	got := idx.RangeCount(0, 50)
	truth := float64(idx.TrueRangeCount(0, 50))
	if math.Abs(got-truth) > 25 {
		t.Fatalf("range count %v too far from truth %v", got, truth)
	}
	if idx.RangeCount(90, 90) != 0 {
		t.Fatal("empty range should count 0")
	}
	if idx.RangeCount(-5, 0) != 0 {
		t.Fatal("out-of-domain range should count 0")
	}
}

func TestTrueRangeCount(t *testing.T) {
	idx := newIndex(t, Batched, 100, 10)
	for i := 0; i < 30; i++ {
		idx.Insert(int64(i))
	}
	// Values 0..29 land in buckets 0..2 (bucket width 10).
	if got := idx.TrueRangeCount(0, 30); got != 30 {
		t.Fatalf("true count [0,30) = %d", got)
	}
	if got := idx.TrueRangeCount(30, 100); got != 0 {
		t.Fatalf("true count [30,100) = %d", got)
	}
}

func TestInsertClampsDomain(t *testing.T) {
	idx := newIndex(t, Batched, 100, 10)
	idx.Insert(-50)
	idx.Insert(1e6)
	if got := idx.TrueRangeCount(0, 10); got != 1 {
		t.Fatalf("clamped low insert count = %d", got)
	}
	if got := idx.TrueRangeCount(90, 100); got != 1 {
		t.Fatalf("clamped high insert count = %d", got)
	}
}

func BenchmarkInsertNaive(b *testing.B) {
	acct, _ := NewAccountant(float64(b.N) + 10)
	idx, err := NewIndex(IndexConfig{
		Domain: 1000, Buckets: 100, EpsPerPub: 1,
		Policy: PerUpdate, Accountant: acct,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.Insert(int64(i % 1000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertBatched100(b *testing.B) {
	acct, _ := NewAccountant(float64(b.N)/100 + 10)
	idx, err := NewIndex(IndexConfig{
		Domain: 1000, Buckets: 100, EpsPerPub: 1,
		Policy: Batched, BatchSize: 100, Accountant: acct,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.Insert(int64(i % 1000)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWindowResetPolicySurvivesBeyondBudget(t *testing.T) {
	// Budget covers 10 publications; the window resets every 5 inserts, so
	// inserts keep flowing indefinitely (per-window privacy).
	acct, _ := NewAccountant(1.0)
	idx, err := NewIndex(IndexConfig{
		Domain: 100, Buckets: 10, EpsPerPub: 0.1,
		Policy: WindowReset, WindowSize: 5, Accountant: acct,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := idx.Insert(int64(i % 100)); err != nil {
			t.Fatalf("window-reset insert %d failed: %v", i, err)
		}
	}
	if idx.Publications() < 100 {
		t.Fatalf("publications = %d, want >= 100", idx.Publications())
	}
}

func TestWindowResetValidation(t *testing.T) {
	acct, _ := NewAccountant(1.0)
	_, err := NewIndex(IndexConfig{
		Domain: 100, Buckets: 10, EpsPerPub: 0.1,
		Policy: WindowReset, WindowSize: 0, Accountant: acct,
	})
	if err == nil {
		t.Fatal("WindowSize=0 accepted")
	}
}

func TestAccountantReset(t *testing.T) {
	acct, _ := NewAccountant(1.0)
	acct.Spend(0.9)
	acct.Reset()
	if acct.spent != 0 {
		t.Fatalf("spent after reset = %v", acct.spent)
	}
	if err := acct.Spend(1.0); err != nil {
		t.Fatalf("spend after reset failed: %v", err)
	}
}
