package zk

import (
	"fmt"
	"math/big"
	"testing"

	"prever/internal/commit"
)

// testBounds are the bounds the weighted range proof is checked at:
// every bound 0–70, and 2^k − 1, 2^k and 2^k + 1 for k = 10 and 40,
// where the top weight is 2^(k−1), 1 and 2.
func testBounds() []*big.Int {
	var out []*big.Int
	for b := int64(0); b <= 70; b++ {
		out = append(out, big.NewInt(b))
	}
	for _, k := range []uint{10, 40} {
		pow := new(big.Int).Lsh(big.NewInt(1), k)
		for _, d := range []int64{-1, 0, 1} {
			out = append(out, new(big.Int).Add(pow, big.NewInt(d)))
		}
	}
	return out
}

// valuesIn returns every integer in [lo, hi] when there are at most
// 2 048 of them, and otherwise the ends, the points around the top
// bit's threshold 2^(n−1) and around its weight top, and the middle.
func valuesIn(lo, hi *big.Int, n int, top *big.Int) []*big.Int {
	span := new(big.Int).Sub(hi, lo)
	if span.Cmp(big.NewInt(2048)) < 0 {
		var out []*big.Int
		for v := new(big.Int).Set(lo); v.Cmp(hi) <= 0; v = new(big.Int).Add(v, big.NewInt(1)) {
			out = append(out, v)
		}
		return out
	}
	half := new(big.Int).Lsh(big.NewInt(1), uint(n-1))
	mid := new(big.Int).Add(lo, new(big.Int).Rsh(span, 1))
	var out []*big.Int
	seen := map[string]bool{}
	for _, v := range []*big.Int{lo, hi, mid, half, top} {
		for _, d := range []int64{-1, 0, 1} {
			x := new(big.Int).Add(v, big.NewInt(d))
			if x.Cmp(lo) >= 0 && x.Cmp(hi) <= 0 && !seen[x.String()] {
				seen[x.String()] = true
				out = append(out, x)
			}
		}
	}
	return out
}

// topWeight returns rangeWeights' top weight for a bound proof at b
// (bound 0 proves [0, 1] on each side).
func topWeight(t *testing.T, b *big.Int) *big.Int {
	t.Helper()
	max, _ := boundRange(b)
	_, top, ok := rangeWeights(max)
	if !ok {
		t.Fatalf("no range proof over [0, %v]", max)
	}
	return top
}

// commitBig commits to v with fresh randomness.
func commitBig(t *testing.T, p *commit.Params, v *big.Int) (commit.Commitment, commit.Opening) {
	t.Helper()
	r, err := p.Group.RandScalar(nil)
	if err != nil {
		t.Fatal(err)
	}
	return p.CommitWith(v, r), commit.Opening{M: v, R: r}
}

// verifyBoth runs VerifyBound on each proof and VerifyBoundBatch on all
// of them, and returns the per-proof verdicts of each.
func verifyBoth(t *testing.T, p *commit.Params, bound *big.Int, cs []commit.Commitment, prs []BoundProof, ctxs []string) (seq, batch []error) {
	t.Helper()
	for i := range prs {
		seq = append(seq, VerifyBound(p, cs[i], bound, prs[i], ctxs[i]))
	}
	batch, err := VerifyBoundBatch(p, cs, bound, prs, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return seq, batch
}

// TestBoundEveryValue: at every test bound, each value in [0, B] (all
// of them up to 2^10 + 1, a sample of ends and thresholds at 2^40 ± 1)
// proves and verifies under VerifyBound and VerifyBoundBatch, and the
// prover refuses each value in [B + 1, 2^n + 1], n = boundWidth(B).
func TestBoundEveryValue(t *testing.T) {
	p := params()
	for _, bound := range testBounds() {
		n := boundWidth(bound)
		top := topWeight(t, bound)
		var cs []commit.Commitment
		var prs []BoundProof
		var ctxs []string
		for _, v := range valuesIn(new(big.Int), bound, n, top) {
			c, o := commitBig(t, p, v)
			ctx := fmt.Sprintf("every/%v/%v", bound, v)
			pr, err := ProveBound(p, c, o, bound, ctx, nil)
			if err != nil {
				t.Fatalf("bound %v: prove %v: %v", bound, v, err)
			}
			cs, prs, ctxs = append(cs, c), append(prs, pr), append(ctxs, ctx)
		}
		seq, batch := verifyBoth(t, p, bound, cs, prs, ctxs)
		for i := range prs {
			if seq[i] != nil || batch[i] != nil {
				t.Errorf("bound %v, proof %d: VerifyBound = %v, VerifyBoundBatch = %v", bound, i, seq[i], batch[i])
			}
		}
		beyond := new(big.Int).Lsh(big.NewInt(1), uint(n))
		beyond.Add(beyond, big.NewInt(1))
		for _, v := range valuesIn(new(big.Int).Add(bound, big.NewInt(1)), beyond, n, top) {
			c, o := commitBig(t, p, v)
			if _, err := ProveBound(p, c, o, bound, "refuse", nil); err == nil {
				t.Errorf("bound %v: ProveBound proved %v", bound, v)
			}
		}
	}
}

// TestBoundRejectsPowerOfTwoWeights: a value in (B, 2^n) has an honest
// plain-binary range proof of width n, the construction whose range is
// [0, 2^n). Put in a bound proof's Low, it must fail both verifiers,
// which recompose with the top weight B − 2^(n−1) + 1 that they derive
// from B.
func TestBoundRejectsPowerOfTwoWeights(t *testing.T) {
	p := params()
	for _, bound := range testBounds() {
		if bound.Sign() == 0 {
			continue // [0, 0] has no plain-binary alternative of width 1 but [0, 1] on each side
		}
		n := boundWidth(bound)
		var cs []commit.Commitment
		var prs []BoundProof
		var ctxs []string
		for _, v := range valuesIn(new(big.Int).Add(bound, big.NewInt(1)), binary(n), n, topWeight(t, bound)) {
			c, o := commitBig(t, p, v)
			ctx := fmt.Sprintf("pow2/%v/%v", bound, v)
			low, err := proveRange(p, c, o, binary(n), ctx+"/low", nil)
			if err != nil {
				t.Fatal(err)
			}
			cs, prs, ctxs = append(cs, c), append(prs, BoundProof{NBits: n, Low: low}), append(ctxs, ctx)
		}
		seq, batch := verifyBoth(t, p, bound, cs, prs, ctxs)
		for i := range prs {
			if seq[i] == nil || batch[i] == nil {
				t.Errorf("bound %v: a plain-binary proof of a value above it passed: VerifyBound = %v, VerifyBoundBatch = %v", bound, seq[i], batch[i])
			}
		}
	}
}

// TestBoundRejectsOtherBoundOfSameWidth: a proof made for B₁ fails
// under every other bound B₂ of the same width, whose top weight
// differs, however small the value it hides.
func TestBoundRejectsOtherBoundOfSameWidth(t *testing.T) {
	p := params()
	for b1 := int64(1); b1 <= 70; b1++ {
		n := boundWidth(big.NewInt(b1))
		var cs []commit.Commitment
		var prs []BoundProof
		var ctxs []string
		for _, v := range []int64{0, b1} {
			c, o, err := p.CommitInt(v, nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("other/%d/%d", b1, v)
			pr, err := ProveBound(p, c, o, big.NewInt(b1), ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			cs, prs, ctxs = append(cs, c), append(prs, pr), append(ctxs, ctx)
		}
		for b2 := int64(1) << (n - 1); b2 < int64(1)<<n; b2++ {
			if b2 == b1 {
				continue
			}
			seq, batch := verifyBoth(t, p, big.NewInt(b2), cs, prs, ctxs)
			for i := range prs {
				if seq[i] == nil || batch[i] == nil {
					t.Errorf("proof for bound %d passed under bound %d: VerifyBound = %v, VerifyBoundBatch = %v", b1, b2, seq[i], batch[i])
				}
			}
		}
	}
}

// TestBoundHighSideShape: at B ≥ 1 a proof's High side must be empty,
// and at B = 0 it must be there. An honest proof with another proof's
// range grafted onto its High side, or with its High side removed,
// fails both verifiers.
func TestBoundHighSideShape(t *testing.T) {
	p := params()
	zero := big.NewInt(0)
	c0, o0, _ := p.CommitInt(0, nil)
	pr0, err := ProveBound(p, c0, o0, zero, "shape", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bound := range []int64{1, 2, 40} {
		b := big.NewInt(bound)
		c, o, _ := p.CommitInt(1, nil)
		pr, err := ProveBound(p, c, o, b, "shape", nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pr.High.Bits) != 0 || len(pr.High.BitProofs) != 0 {
			t.Fatalf("bound %d: ProveBound filled High", bound)
		}
		for name, high := range map[string]RangeProof{
			"own low":    pr.Low,
			"bound-0":    pr0.High,
			"bits only":  {Bits: pr.Low.Bits},
			"proof only": {BitProofs: pr.Low.BitProofs},
		} {
			bad := pr
			bad.High = high
			seq, batch := verifyBoth(t, p, b, []commit.Commitment{c, c}, []BoundProof{pr, bad}, []string{"shape", "shape"})
			if seq[0] != nil || batch[0] != nil {
				t.Fatalf("bound %d: the honest proof failed: %v, %v", bound, seq[0], batch[0])
			}
			if seq[1] == nil || batch[1] == nil {
				t.Errorf("bound %d: a High side (%s) passed: VerifyBound = %v, VerifyBoundBatch = %v", bound, name, seq[1], batch[1])
			}
		}
	}
	bad := pr0
	bad.High = RangeProof{}
	seq, batch := verifyBoth(t, p, zero, []commit.Commitment{c0, c0}, []BoundProof{pr0, bad}, []string{"shape", "shape"})
	if seq[0] != nil || batch[0] != nil {
		t.Fatalf("bound 0: the honest proof failed: %v, %v", seq[0], batch[0])
	}
	if seq[1] == nil || batch[1] == nil {
		t.Errorf("bound 0: a proof without its High side passed: VerifyBound = %v, VerifyBoundBatch = %v", seq[1], batch[1])
	}
}
