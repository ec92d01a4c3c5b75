package token

import (
	"math/big"
	"sync"
	"testing"
)

var (
	authOnce sync.Once
	auth     *Authority
)

func authority(t testing.TB) *Authority {
	authOnce.Do(func() {
		var err error
		auth, err = NewAuthority(1024, nil)
		if err != nil {
			panic(err)
		}
	})
	return auth
}

// issueWallet runs the full issuance flow for a participant.
func issueWallet(t testing.TB, a *Authority, participant, period string, n, budget int) *Wallet {
	w, err := NewWallet(a.PublicKey(), period, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigs, err := a.IssueBudget(participant, period, w.BlindedRequests(), budget)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Finalize(sigs); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestIssueAndSpend(t *testing.T) {
	a := authority(t)
	w := issueWallet(t, a, "worker-1", "2022-W13", 5, 40)
	if w.Remaining() != 5 {
		t.Fatalf("remaining = %d", w.Remaining())
	}
	store := NewMemorySpentStore()
	tok, err := w.Next()
	if err != nil {
		t.Fatal(err)
	}
	if err := Spend(a.PublicKey(), store, tok, "2022-W13"); err != nil {
		t.Fatal(err)
	}
	if w.Remaining() != 4 {
		t.Fatalf("remaining after spend = %d", w.Remaining())
	}
}

func TestDoubleSpendDetected(t *testing.T) {
	a := authority(t)
	w := issueWallet(t, a, "worker-2", "2022-W13", 1, 40)
	store := NewMemorySpentStore()
	tok, _ := w.Next()
	if err := Spend(a.PublicKey(), store, tok, "2022-W13"); err != nil {
		t.Fatal(err)
	}
	// Spending the same token at "another platform" sharing the store.
	if err := Spend(a.PublicKey(), store, tok, "2022-W13"); err != ErrDoubleSpend {
		t.Fatalf("double spend err = %v, want ErrDoubleSpend", err)
	}
}

func TestBudgetEnforcedAtIssuance(t *testing.T) {
	a := authority(t)
	issueWallet(t, a, "worker-3", "2022-W13", 30, 40)
	// 30 issued; asking for 11 more exceeds 40.
	w2, err := NewWallet(a.PublicKey(), "2022-W13", 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.IssueBudget("worker-3", "2022-W13", w2.BlindedRequests(), 40); err == nil {
		t.Fatal("over-budget issuance accepted")
	}
	// 10 more is fine.
	w3, _ := NewWallet(a.PublicKey(), "2022-W13", 10, nil)
	if _, err := a.IssueBudget("worker-3", "2022-W13", w3.BlindedRequests(), 40); err != nil {
		t.Fatalf("in-budget issuance refused: %v", err)
	}
	if n := a.issued["worker-3|2022-W13"]; n != 40 {
		t.Fatalf("issued = %d", n)
	}
}

func TestBudgetIsPerPeriod(t *testing.T) {
	a := authority(t)
	issueWallet(t, a, "worker-4", "2022-W13", 40, 40)
	// New period, fresh budget.
	issueWallet(t, a, "worker-4", "2022-W14", 40, 40)
}

func TestForgedTokenRejected(t *testing.T) {
	a := authority(t)
	store := NewMemorySpentStore()
	forged := Token{Serial: "deadbeef", Period: "2022-W13", Sig: big.NewInt(12345)}
	if err := Spend(a.PublicKey(), store, forged, "2022-W13"); err != ErrBadSignature {
		t.Fatalf("forged token err = %v, want ErrBadSignature", err)
	}
	if len(store.spent) != 0 {
		t.Fatal("forged token recorded as spent")
	}
}

func TestWrongPeriodRejected(t *testing.T) {
	a := authority(t)
	w := issueWallet(t, a, "worker-5", "2022-W13", 1, 40)
	store := NewMemorySpentStore()
	tok, _ := w.Next()
	if err := Spend(a.PublicKey(), store, tok, "2022-W14"); err != ErrWrongPeriod {
		t.Fatalf("stale token err = %v, want ErrWrongPeriod", err)
	}
}

func TestTokenBoundToItsPeriod(t *testing.T) {
	// Re-labelling a W13 token as W14 breaks the signature (period is
	// inside the signed message).
	a := authority(t)
	w := issueWallet(t, a, "worker-6", "2022-W13", 1, 40)
	store := NewMemorySpentStore()
	tok, _ := w.Next()
	tok.Period = "2022-W14"
	if err := Spend(a.PublicKey(), store, tok, "2022-W14"); err != ErrBadSignature {
		t.Fatalf("relabelled token err = %v, want ErrBadSignature", err)
	}
}

func TestWalletExhaustion(t *testing.T) {
	a := authority(t)
	w := issueWallet(t, a, "worker-7", "2022-W13", 2, 40)
	w.Next()
	w.Next()
	if _, err := w.Next(); err == nil {
		t.Fatal("empty wallet dispensed a token")
	}
}

func TestUnlinkability(t *testing.T) {
	// The authority's view (blinded requests) must be unlinkable to the
	// spent tokens: no blinded request equals any serialized signature or
	// serial content.
	a := authority(t)
	w, _ := NewWallet(a.PublicKey(), "2022-W13", 3, nil)
	reqs := w.BlindedRequests()
	sigs, err := a.IssueBudget("worker-8", "2022-W13", reqs, 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Finalize(sigs); err != nil {
		t.Fatal(err)
	}
	for w.Remaining() > 0 {
		tok, _ := w.Next()
		for _, r := range reqs {
			if r.Cmp(tok.Sig) == 0 {
				t.Fatal("spent signature equals a blinded request")
			}
		}
	}
}

func TestFinalizeValidation(t *testing.T) {
	a := authority(t)
	w, _ := NewWallet(a.PublicKey(), "2022-W13", 2, nil)
	if err := w.Finalize([]*big.Int{big.NewInt(1)}); err == nil {
		t.Fatal("signature count mismatch accepted")
	}
	if err := w.Finalize([]*big.Int{big.NewInt(1), big.NewInt(2)}); err == nil {
		t.Fatal("garbage signatures accepted")
	}
}

func TestConcurrentSpendsOnlyOneWins(t *testing.T) {
	a := authority(t)
	w := issueWallet(t, a, "worker-10", "2022-W13", 1, 40)
	store := NewMemorySpentStore()
	tok, _ := w.Next()
	const racers = 8
	var wg sync.WaitGroup
	wins := make(chan struct{}, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if Spend(a.PublicKey(), store, tok, "2022-W13") == nil {
				wins <- struct{}{}
			}
		}()
	}
	wg.Wait()
	close(wins)
	n := 0
	for range wins {
		n++
	}
	if n != 1 {
		t.Fatalf("%d concurrent spends of one token succeeded", n)
	}
}

func BenchmarkIssueSpend(b *testing.B) {
	a := authority(b)
	store := NewMemorySpentStore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := NewWallet(a.PublicKey(), "bench", 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		sigs, err := a.IssueBudget("bench-worker", "bench", w.BlindedRequests(), 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Finalize(sigs); err != nil {
			b.Fatal(err)
		}
		tok, _ := w.Next()
		if err := Spend(a.PublicKey(), store, tok, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpendOnly(b *testing.B) {
	a := authority(b)
	store := NewMemorySpentStore()
	// Large budget: the benchmark framework re-invokes this function while
	// scaling b.N, and each invocation issues one more token.
	w := issueWallet(b, a, "bench-spender", "bench2", 1, 1<<30)
	tok, _ := w.Next()
	if err := Spend(a.PublicKey(), store, tok, "bench2"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Measure verify + store cost via the double-spend path.
		if err := Spend(a.PublicKey(), store, tok, "bench2"); err != ErrDoubleSpend {
			b.Fatal(err)
		}
	}
}
