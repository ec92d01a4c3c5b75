package zk

import (
	"crypto/rand"
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
		pr, err := proveBit(p, c, o, ctxs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		cs[i], prs[i] = c, pr
	}
	bitBatch := func() []error {
		claims := make([]digitClaim, n)
		for i := range claims {
			claims[i] = digitClaim{cs[i], bitValues, []BitProof{prs[i]}, ctxs[i]}
		}
		errs := make([]error, n)
		if err := verifyDigitBatch(p, claims, nil, errs); err != nil {
			t.Fatal(err)
		}
		return errs
	}
	assertBatchErrs(t, bitBatch(), nil)
	// Corrupt one response and one announcement; both must be attributed.
	prs[4].Z0 = new(big.Int).Mod(new(big.Int).Add(prs[4].Z0, big.NewInt(1)), p.Group.Q)
	prs[9].A1 = nonMember(p)
	assertBatchErrs(t, bitBatch(), map[int]bool{4: true, 9: true})
}

// rangeBatch runs verifyRangeBatch over fresh error slots, as
// VerifyBoundBatch does once it has checked every commitment.
func rangeBatch(t *testing.T, p *commit.Params, cs []commit.Commitment, max *big.Int, prs []RangeProof, ctxs []string) []error {
	t.Helper()
	errs := make([]error, len(prs))
	if err := verifyRangeBatch(p, cs, max, prs, ctxs, nil, errs); err != nil {
		t.Fatal(err)
	}
	return errs
}

// makeRangeBatch produces n range proofs over [0, max].
func makeRangeBatch(t testing.TB, p *commit.Params, n int, max *big.Int) ([]commit.Commitment, []RangeProof, []string) {
	t.Helper()
	cs := make([]commit.Commitment, n)
	prs := make([]RangeProof, n)
	ctxs := make([]string, n)
	for i := 0; i < n; i++ {
		v := new(big.Int).Mod(big.NewInt(int64(i)), new(big.Int).Add(max, big.NewInt(1)))
		r, err := p.Group.RandScalar(nil)
		if err != nil {
			t.Fatal(err)
		}
		c := p.CommitWith(v, r)
		ctxs[i] = fmt.Sprintf("range/%d", i)
		pr, err := proveRange(p, c, commit.Opening{M: v, R: r}, max, ctxs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		cs[i], prs[i] = c, pr
	}
	return cs, prs, ctxs
}

func TestVerifyRangeBatchIdentifiesCorrupted(t *testing.T) {
	p := params()
	cs, prs, ctxs := makeRangeBatch(t, p, 8, binary(5))
	assertBatchErrs(t, rangeBatch(t, p, cs, binary(5), prs, ctxs), nil)
	// Corrupt a single digit record inside proof 3, and give proof 6 a digit
	// count that disagrees with the range.
	prs[3].BitProofs[2].Z1 = new(big.Int).Mod(new(big.Int).Add(prs[3].BitProofs[2].Z1, big.NewInt(1)), p.Group.Q)
	prs[6].Bits = prs[6].Bits[:2]
	assertBatchErrs(t, rangeBatch(t, p, cs, binary(5), prs, ctxs), map[int]bool{3: true, 6: true})
}

// TestVerifyRangeBatchRejectsRecompositionMismatch: digit proofs can all
// be individually valid while recomposing to a different commitment;
// the per-proof recomposition check catches it.
func TestVerifyRangeBatchRejectsRecompositionMismatch(t *testing.T) {
	p := params()
	cs, prs, ctxs := makeRangeBatch(t, p, 4, binary(4))
	other, _, err := p.CommitInt(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs[1] = other
	assertBatchErrs(t, rangeBatch(t, p, cs, binary(4), prs, ctxs), map[int]bool{1: true})
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
	// Corrupt a digit record of update 2 and the claimed width of update 5.
	prs[2].Low.BitProofs[1].Z0 = new(big.Int).Mod(new(big.Int).Add(prs[2].Low.BitProofs[1].Z0, big.NewInt(1)), p.Group.Q)
	prs[5].NBits = 7
	errs, err = VerifyBoundBatch(p, cs, big.NewInt(bound), prs, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchErrs(t, errs, map[int]bool{2: true, 5: true})
}

// TestVerifyBoundBatchAgreesWithSequential: with one proof corrupted,
// the batch verdict per index must match the oracle's direct check of
// that proof alone, and so must VerifyBound's.
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
		oracle := directBound(p, cs[i], big.NewInt(bound), prs[i], ctxs[i])
		lone := VerifyBound(p, cs[i], big.NewInt(bound), prs[i], ctxs[i])
		if (oracle == nil) != (errs[i] == nil) || (oracle == nil) != (lone == nil) {
			t.Errorf("proof %d: oracle=%v VerifyBound=%v batch=%v", i, oracle, lone, errs[i])
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
// check: at batch=64 on the production-sized group, checking each of 64
// proofs' equations directly (the oracle's directOpening) must cost at
// least 3x one VerifyOpeningBatch of the same proofs. Both sides are single-threaded, so unlike the
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
			if err := directOpening(p, cs[i], prs[i], ctxs[i]); err != nil {
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
	t.Logf("direct over batched: %v", r)
	if r.Median < 3 {
		t.Errorf("batch verify speedup %.2fx, want >= 3x", r.Median)
	}
}

// TestLoneBoundVerifyCost gates what a proof verified alone costs:
// VerifyBound of one bound-40 proof at MODP2048 costs at most 0.5x
// VerifyBoundBatch of one engine group, 8 such proofs. A lone proof is
// a fold of one, 15 terms and two fixed-base exponentiations, and reads
// ≈ 0.3x; checking its 12 branch equations one at a time, as the direct
// verifier did, reads ≈ 1.1x. The statistic is costtest.Ratio's median
// of pairs of thread CPU time.
func TestLoneBoundVerifyCost(t *testing.T) {
	costtest.Skip(t)
	p := prodZKParams()
	bound := big.NewInt(40)
	cs, prs, ctxs := makeBoundBatch(t, p, 8, 40)
	r := costtest.Ratio(15, func() {
		if err := VerifyBound(p, cs[3], bound, prs[3], ctxs[3]); err != nil {
			t.Fatal(err)
		}
	}, func() {
		errs, err := VerifyBoundBatch(p, cs, bound, prs, ctxs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("proof %d unexpectedly invalid: %v", i, e)
			}
		}
	})
	t.Logf("VerifyBound of one bound-40 proof over VerifyBoundBatch of 8: %v", r)
	if r.Median > 0.5 {
		t.Errorf("a lone bound-40 proof costs %.2fx a batch of 8 (limit 0.5x): a lone proof is no longer a fold of one", r.Median)
	}
}

// bitFoldTerms is n terms of the bit-proof fold's shape at MODP2048, as
// group's benchmarks build it: random members as bases, and exponents of
// 128, 128 and 257 bits, a bit proof's A0^ρ, A1^σ and C^(ρ·c0+σ·c1).
func bitFoldTerms(t *testing.T, g *group.Group, n int) (bases, exps []*big.Int) {
	bases, exps = make([]*big.Int, n), make([]*big.Int, n)
	for i := range bases {
		x, err := rand.Int(rand.Reader, g.P)
		if err != nil {
			t.Fatal(err)
		}
		bases[i] = g.Mul(x, x)
		width := uint(128)
		if i%3 == 2 {
			width = 257
		}
		if exps[i], err = rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), width)); err != nil {
			t.Fatal(err)
		}
	}
	return bases, exps
}

// TestBoundBatchCost gates what one engine group costs to verify:
// VerifyBoundBatch over 8 bound-40 proofs at MODP2048 costs at most
// 0.60x one MultiExp over 288 terms of the bit fold's shape. A bound
// proof of base-4 digits is three four-value digits, 5 fold terms each,
// so the group folds 120 terms and reads ≈ 0.53x; a proof of 6 bit
// proofs (one range over [0, 40] in bits) folds 144 and reads ≈ 0.66x,
// and two range proofs per bound (v and 40 − v, 12 bit proofs) fold 288
// and read ≈ 1.18x. The statistic is costtest.Ratio's median of pairs
// of thread CPU time.
func TestBoundBatchCost(t *testing.T) {
	costtest.Skip(t)
	p := prodZKParams()
	bound := big.NewInt(40)
	cs, prs, ctxs := makeBoundBatch(t, p, 8, 40)
	bases, exps := bitFoldTerms(t, p.Group, 288)
	r := costtest.Ratio(15, func() {
		errs, err := VerifyBoundBatch(p, cs, bound, prs, ctxs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("proof %d unexpectedly invalid: %v", i, e)
			}
		}
	}, func() {
		if _, err := p.Group.MultiExp(bases, exps); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("VerifyBoundBatch of 8 bound-40 proofs over a 288-term fold: %v", r)
	if r.Median > 0.60 {
		t.Errorf("VerifyBoundBatch of 8 bound-40 proofs costs %.2fx a 288-term fold (limit 0.60x): a bound proof folds more terms than one commitment and one term per value of each base-4 digit", r.Median)
	}
}

// --- regression benchmarks (wired into make bench) ------------------------

// BenchmarkVerifyOpeningBatch64 and BenchmarkVerifyOpeningSeq64 bracket
// the opening batch's speedup: one iteration verifies the same 64
// proofs, folded vs each checked directly (the oracle's directOpening).
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
			if err := directOpening(p, cs[j], prs[j], ctxs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkVerifyBoundBatch8MODP2048 is one engine_zk group: 8 bound-40
// proofs at MODP2048, a 120-term fold.
func BenchmarkVerifyBoundBatch8MODP2048(b *testing.B) {
	p := prodZKParams()
	cs, prs, ctxs := makeBoundBatch(b, p, 8, 40)
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

// BenchmarkVerifyBoundLoneMODP2048 is one bound-40 proof verified
// alone at MODP2048: VerifyBound, a fold of one (15 terms).
func BenchmarkVerifyBoundLoneMODP2048(b *testing.B) {
	p := prodZKParams()
	cs, prs, ctxs := makeBoundBatch(b, p, 1, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyBound(p, cs[0], big.NewInt(40), prs[0], ctxs[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyBoundBatch16 runs at the test group.
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
