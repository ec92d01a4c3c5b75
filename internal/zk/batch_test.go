package zk

import (
	"fmt"
	"math/big"
	"sync"
	"testing"

	"prever/internal/commit"
	"prever/internal/costtest"
	"prever/internal/group"
)

// makeOpeningBatch produces n valid (commitment, proof, ctx) triples.
func makeOpeningBatch(t testing.TB, p *commit.Params, n int) ([]commit.Commitment, []OpeningProof, []string) {
	t.Helper()
	cs := make([]commit.Commitment, n)
	prs := make([]OpeningProof, n)
	ctxs := make([]string, n)
	for i := 0; i < n; i++ {
		c, o, err := p.CommitInt(int64(i*3+1), nil)
		if err != nil {
			t.Fatal(err)
		}
		ctxs[i] = fmt.Sprintf("batch/%d", i)
		pr, err := ProveOpening(p, c, o, ctxs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		cs[i], prs[i] = c, pr
	}
	return cs, prs, ctxs
}

func assertBatchErrs(t *testing.T, errs []error, bad map[int]bool) {
	t.Helper()
	for i, e := range errs {
		if bad[i] && e == nil {
			t.Errorf("proof %d: corrupted but batch reported valid", i)
		}
		if !bad[i] && e != nil {
			t.Errorf("proof %d: valid but batch reported %v", i, e)
		}
	}
}

func TestVerifyOpeningBatchAllValid(t *testing.T) {
	p := params()
	cs, prs, ctxs := makeOpeningBatch(t, p, 16)
	errs, err := VerifyOpeningBatch(p, cs, prs, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchErrs(t, errs, nil)
}

// TestVerifyOpeningBatchIdentifiesCorrupted: a single corrupted proof in
// the batch must be rejected AND attributed to its index, with every
// other proof still reported valid (the bisect fallback).
func TestVerifyOpeningBatchIdentifiesCorrupted(t *testing.T) {
	p := params()
	cs, prs, ctxs := makeOpeningBatch(t, p, 16)
	prs[7].Z1 = new(big.Int).Mod(new(big.Int).Add(prs[7].Z1, big.NewInt(1)), p.Group.Q)
	errs, err := VerifyOpeningBatch(p, cs, prs, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchErrs(t, errs, map[int]bool{7: true})
}

func TestVerifyOpeningBatchIdentifiesMultipleCorrupted(t *testing.T) {
	p := params()
	cs, prs, ctxs := makeOpeningBatch(t, p, 16)
	bad := map[int]bool{0: true, 7: true, 15: true}
	for i := range bad {
		prs[i].Z2 = new(big.Int).Mod(new(big.Int).Add(prs[i].Z2, big.NewInt(1)), p.Group.Q)
	}
	errs, err := VerifyOpeningBatch(p, cs, prs, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchErrs(t, errs, bad)
}

// TestVerifyOpeningBatchRejectsMalformed: structurally broken proofs —
// truncated (nil fields), out-of-group announcements, non-canonical
// scalars — are rejected before folding, each at its own index.
func TestVerifyOpeningBatchRejectsMalformed(t *testing.T) {
	p := params()
	cs, prs, ctxs := makeOpeningBatch(t, p, 8)
	prs[1].A = nil                                     // truncated
	prs[3].A = nonMember(p)                            // out of group
	prs[5].Z1 = new(big.Int).Add(prs[5].Z1, p.Group.Q) // z >= Q
	prs[6].Z2 = new(big.Int).Neg(prs[6].Z2)            // negative
	errs, err := VerifyOpeningBatch(p, cs, prs, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchErrs(t, errs, map[int]bool{1: true, 3: true, 5: true, 6: true})
}

func TestVerifyOpeningBatchCrossContextReplay(t *testing.T) {
	p := params()
	cs, prs, ctxs := makeOpeningBatch(t, p, 4)
	ctxs[2] = "batch/other" // proof 2 was bound to "batch/2"
	errs, err := VerifyOpeningBatch(p, cs, prs, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchErrs(t, errs, map[int]bool{2: true})
}

func TestVerifyOpeningBatchLengthMismatch(t *testing.T) {
	p := params()
	cs, prs, _ := makeOpeningBatch(t, p, 3)
	if _, err := VerifyOpeningBatch(p, cs, prs, []string{"a"}, nil); err == nil {
		t.Error("length mismatch not reported as operational error")
	}
}

func TestVerifyOpeningBatchEmptyAndSingleton(t *testing.T) {
	p := params()
	if errs, err := VerifyOpeningBatch(p, nil, nil, nil, nil); err != nil || len(errs) != 0 {
		t.Errorf("empty batch: errs=%v err=%v", errs, err)
	}
	cs, prs, ctxs := makeOpeningBatch(t, p, 1)
	errs, err := VerifyOpeningBatch(p, cs, prs, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchErrs(t, errs, nil)
}

func TestVerifyBitBatch(t *testing.T) {
	p := params()
	n := 12
	cs := make([]commit.Commitment, n)
	prs := make([]BitProof, n)
	ctxs := make([]string, n)
	for i := 0; i < n; i++ {
		c, o, err := p.CommitInt(int64(i%2), nil)
		if err != nil {
			t.Fatal(err)
		}
		ctxs[i] = fmt.Sprintf("bit/%d", i)
		pr, err := ProveBit(p, c, o, ctxs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		cs[i], prs[i] = c, pr
	}
	errs, err := VerifyBitBatch(p, cs, prs, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchErrs(t, errs, nil)
	// Corrupt one response and one announcement; both must be attributed.
	prs[4].Z0 = new(big.Int).Mod(new(big.Int).Add(prs[4].Z0, big.NewInt(1)), p.Group.Q)
	prs[9].A1 = nonMember(p)
	errs, err = VerifyBitBatch(p, cs, prs, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchErrs(t, errs, map[int]bool{4: true, 9: true})
}

func makeRangeBatch(t testing.TB, p *commit.Params, n, nBits int) ([]commit.Commitment, []RangeProof, []string) {
	t.Helper()
	cs := make([]commit.Commitment, n)
	prs := make([]RangeProof, n)
	ctxs := make([]string, n)
	for i := 0; i < n; i++ {
		c, o, err := p.CommitInt(int64(i%(1<<nBits)), nil)
		if err != nil {
			t.Fatal(err)
		}
		ctxs[i] = fmt.Sprintf("range/%d", i)
		pr, err := ProveRange(p, c, o, nBits, ctxs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		cs[i], prs[i] = c, pr
	}
	return cs, prs, ctxs
}

func TestVerifyRangeBatchIdentifiesCorrupted(t *testing.T) {
	p := params()
	cs, prs, ctxs := makeRangeBatch(t, p, 8, 5)
	errs, err := VerifyRangeBatch(p, cs, 5, prs, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchErrs(t, errs, nil)
	// Corrupt a single bit proof inside proof 3, and give proof 6 a bit
	// count that disagrees with nBits.
	prs[3].BitProofs[2].Z1 = new(big.Int).Mod(new(big.Int).Add(prs[3].BitProofs[2].Z1, big.NewInt(1)), p.Group.Q)
	prs[6].Bits = prs[6].Bits[:4]
	errs, err = VerifyRangeBatch(p, cs, 5, prs, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchErrs(t, errs, map[int]bool{3: true, 6: true})
}

// TestVerifyRangeBatchRejectsRecompositionMismatch: bit proofs can all
// be individually valid while recomposing to a different commitment;
// the per-proof recomposition check catches it.
func TestVerifyRangeBatchRejectsRecompositionMismatch(t *testing.T) {
	p := params()
	cs, prs, ctxs := makeRangeBatch(t, p, 4, 4)
	other, _, err := p.CommitInt(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs[1] = other
	errs, err := VerifyRangeBatch(p, cs, 4, prs, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchErrs(t, errs, map[int]bool{1: true})
}

func makeBoundBatch(t testing.TB, p *commit.Params, n int, bound int64) ([]commit.Commitment, []BoundProof, []string) {
	t.Helper()
	cs := make([]commit.Commitment, n)
	prs := make([]BoundProof, n)
	ctxs := make([]string, n)
	for i := 0; i < n; i++ {
		c, o, err := p.CommitInt(int64(i)%(bound+1), nil)
		if err != nil {
			t.Fatal(err)
		}
		ctxs[i] = fmt.Sprintf("bound/%d", i)
		pr, err := ProveBound(p, c, o, big.NewInt(bound), ctxs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		cs[i], prs[i] = c, pr
	}
	return cs, prs, ctxs
}

func TestVerifyBoundBatchIdentifiesCorrupted(t *testing.T) {
	p := params()
	bound := int64(40)
	cs, prs, ctxs := makeBoundBatch(t, p, 6, bound)
	errs, err := VerifyBoundBatch(p, cs, big.NewInt(bound), prs, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchErrs(t, errs, nil)
	// Corrupt the high-side range proof of update 2 and the claimed width
	// of update 5.
	prs[2].High.BitProofs[1].Z0 = new(big.Int).Mod(new(big.Int).Add(prs[2].High.BitProofs[1].Z0, big.NewInt(1)), p.Group.Q)
	prs[5].NBits = 7
	errs, err = VerifyBoundBatch(p, cs, big.NewInt(bound), prs, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchErrs(t, errs, map[int]bool{2: true, 5: true})
}

// TestVerifyBoundBatchAgreesWithSequential: for every single-corruption
// position, the batch verdict per index must match VerifyBound run
// sequentially.
func TestVerifyBoundBatchAgreesWithSequential(t *testing.T) {
	p := params()
	bound := int64(10)
	cs, prs, ctxs := makeBoundBatch(t, p, 4, bound)
	prs[1].Low.BitProofs[0].C0 = new(big.Int).Mod(new(big.Int).Add(prs[1].Low.BitProofs[0].C0, big.NewInt(1)), p.Group.Q)
	errs, err := VerifyBoundBatch(p, cs, big.NewInt(bound), prs, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prs {
		seq := VerifyBound(p, cs[i], big.NewInt(bound), prs[i], ctxs[i])
		if (seq == nil) != (errs[i] == nil) {
			t.Errorf("proof %d: sequential=%v batch=%v", i, seq, errs[i])
		}
	}
}

// --- speedup gate ---------------------------------------------------------

var (
	prodOnce   sync.Once
	prodParams *commit.Params
)

// prodZKParams returns commitment params over the production-sized
// MODP2048 group (cached: building the fixed-base tables is the
// expensive part).
func prodZKParams() *commit.Params {
	prodOnce.Do(func() { prodParams = commit.NewParams(group.MODP2048()) })
	return prodParams
}

// TestVerifyOpeningBatchSpeedup is the gate on the folded opening
// check: at batch=64 on the production-sized group, 64 sequential
// VerifyOpening calls must cost at least 3x one VerifyOpeningBatch of
// the same proofs. Both sides are single-threaded, so unlike the
// pipeline speedup gate this does not need spare cores. The statistic
// is the median over back-to-back pairs of each pair's ratio of thread
// CPU time (costtest.Ratio), so a load spike that hits one pair cannot
// flip the verdict.
func TestVerifyOpeningBatchSpeedup(t *testing.T) {
	costtest.Skip(t)
	p := prodZKParams()
	cs, prs, ctxs := makeOpeningBatch(t, p, 64)
	r := costtest.Ratio(9, func() {
		for i := range prs {
			if err := VerifyOpening(p, cs[i], prs[i], ctxs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}, func() {
		errs, err := VerifyOpeningBatch(p, cs, prs, ctxs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("proof %d unexpectedly invalid: %v", i, e)
			}
		}
	})
	t.Logf("sequential over batched: %v", r)
	if r.Median < 3 {
		t.Errorf("batch verify speedup %.2fx, want >= 3x", r.Median)
	}
}

// --- regression benchmarks (wired into make bench) ------------------------

// BenchmarkVerifyOpeningBatch64 and BenchmarkVerifyOpeningSeq64 bracket
// the ISSUE 10 perf target: one iteration verifies the same 64 proofs,
// folded vs sequentially.
func BenchmarkVerifyOpeningBatch64(b *testing.B) {
	p := prodZKParams()
	cs, prs, ctxs := makeOpeningBatch(b, p, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errs, err := VerifyOpeningBatch(p, cs, prs, ctxs, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range errs {
			if e != nil {
				b.Fatal(e)
			}
		}
	}
}

func BenchmarkVerifyOpeningSeq64(b *testing.B) {
	p := prodZKParams()
	cs, prs, ctxs := makeOpeningBatch(b, p, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range prs {
			if err := VerifyOpening(p, cs[j], prs[j], ctxs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkVerifyBoundBatch16(b *testing.B) {
	p := params()
	cs, prs, ctxs := makeBoundBatch(b, p, 16, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errs, err := VerifyBoundBatch(p, cs, big.NewInt(40), prs, ctxs, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range errs {
			if e != nil {
				b.Fatal(e)
			}
		}
	}
}
