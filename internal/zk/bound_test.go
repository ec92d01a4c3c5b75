package zk

import (
	"fmt"
	"math/big"
	"testing"

	"prever/internal/commit"
)

// testBounds are the bounds the digit range proof is checked at: every
// bound 0–70, and 2^k − 1, 2^k and 2^k + 1 for k = 10 and 40, where the
// top digit's values are plain base 4 {0, 4^m, 2·4^m, 3·4^m}, {0, 1}
// and {0, 2}. Bounds 0–70 reach two-value top digits (B = 1, 4–7,
// 16–31, 64–70), four-value ones (B = 2, 3, 8–15, 32–63) and, at B = 2,
// the repeated value of {0, 1, 2, 2}.
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
// 2 048 of them, and otherwise the ends, the middle and the points
// around each mark.
func valuesIn(lo, hi *big.Int, marks []*big.Int) []*big.Int {
	span := new(big.Int).Sub(hi, lo)
	if span.Cmp(big.NewInt(2048)) < 0 {
		var out []*big.Int
		for v := new(big.Int).Set(lo); v.Cmp(hi) <= 0; v = new(big.Int).Add(v, big.NewInt(1)) {
			out = append(out, v)
		}
		return out
	}
	mid := new(big.Int).Add(lo, new(big.Int).Rsh(span, 1))
	var out []*big.Int
	seen := map[string]bool{}
	for _, v := range append([]*big.Int{lo, hi, mid}, marks...) {
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

// digitMarks returns the thresholds of a bound proof at b (bound 0
// proves [0, 1] on each side): 4^m, where the base digits run out, and
// each top value t with t + 4^m, the ends of its block of values.
func digitMarks(t *testing.T, b *big.Int) []*big.Int {
	t.Helper()
	max, _ := boundRange(b)
	sets, ok := rangeDigits(max)
	if !ok {
		t.Fatalf("no range proof over [0, %v]", max)
	}
	pow := new(big.Int).Lsh(big.NewInt(1), uint(2*(len(sets)-1)))
	marks := []*big.Int{pow}
	for _, v := range sets[len(sets)-1] {
		marks = append(marks, v, new(big.Int).Add(v, pow))
	}
	return marks
}

// TestRangeDigitsCoverExactly: for every max in [1, 300] and at
// 2^k − 1, 2^k and 2^k + 1 for k = 10, 40 and 128, the digit value sets
// rangeDigits derives are m base-4 digits and a top digit of two or four
// ascending values from 0 to R = max − 4^m + 1, no two more than 4^m
// apart, so the sums cover exactly [0, max] (checked value by value up
// to 300). testBounds reaches each shape of top digit, the repeated
// value included.
func TestRangeDigitsCoverExactly(t *testing.T) {
	var maxes []*big.Int
	for b := int64(1); b <= 300; b++ {
		maxes = append(maxes, big.NewInt(b))
	}
	for _, k := range []uint{10, 40, 128} {
		pow := new(big.Int).Lsh(big.NewInt(1), k)
		for _, d := range []int64{-1, 0, 1} {
			maxes = append(maxes, new(big.Int).Add(pow, big.NewInt(d)))
		}
	}
	for _, max := range maxes {
		sets, ok := rangeDigits(max)
		if max.BitLen() > maxRangeBits {
			if ok {
				t.Errorf("max %v: %d bits accepted", max, max.BitLen())
			}
			continue
		}
		if !ok {
			t.Fatalf("max %v refused", max)
		}
		m := len(sets) - 1
		pow := new(big.Int).Lsh(big.NewInt(1), uint(2*m))
		for j := 0; j < m; j++ {
			if len(sets[j]) != 4 || sets[j][3].Int64() != 3 {
				t.Fatalf("max %v: digit %d is not base 4: %v", max, j, sets[j])
			}
		}
		top := sets[m]
		if len(top) != 2 && len(top) != 4 || top[0].Sign() != 0 {
			t.Fatalf("max %v: top digit %v", max, top)
		}
		if got := new(big.Int).Add(top[len(top)-1], pow); got.Cmp(new(big.Int).Add(max, big.NewInt(1))) != 0 {
			t.Fatalf("max %v: top %v + 4^%d − 1 is not max", max, top[len(top)-1], m)
		}
		for i := 1; i < len(top); i++ {
			gap := new(big.Int).Sub(top[i], top[i-1])
			if gap.Sign() < 0 || gap.Cmp(pow) > 0 {
				t.Fatalf("max %v: top values %v leave a gap wider than 4^%d", max, top, m)
			}
		}
		if !max.IsInt64() || max.Int64() > 300 {
			continue
		}
		covered := map[int64]bool{}
		for _, v := range top {
			for s := int64(0); s < pow.Int64(); s++ {
				covered[v.Int64()+s] = true
			}
		}
		for v := int64(0); v <= max.Int64(); v++ {
			if !covered[v] {
				t.Fatalf("max %v: %d is not a sum of the digits", max, v)
			}
		}
		if len(covered) != int(max.Int64())+1 {
			t.Fatalf("max %v: the digits reach %d values", max, len(covered))
		}
	}
	shapes := map[string]bool{}
	for _, b := range testBounds() {
		max, _ := boundRange(b)
		sets, _ := rangeDigits(max)
		top := sets[len(sets)-1]
		shapes[fmt.Sprint(len(top))] = true
		for i := 1; i < len(top); i++ {
			if top[i].Cmp(top[i-1]) == 0 {
				shapes["repeated"] = true
			}
		}
	}
	for _, want := range []string{"2", "4", "repeated"} {
		if !shapes[want] {
			t.Errorf("testBounds reaches no top digit of shape %s", want)
		}
	}
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

// verifyBoth runs the oracle's direct check on each proof and
// VerifyBoundBatch on all of them, and returns the per-proof verdicts
// of each. It also fails the test where VerifyBound, a fold of the one
// proof, disagrees with the oracle.
func verifyBoth(t *testing.T, p *commit.Params, bound *big.Int, cs []commit.Commitment, prs []BoundProof, ctxs []string) (oracle, batch []error) {
	t.Helper()
	for i := range prs {
		oracle = append(oracle, directBound(p, cs[i], bound, prs[i], ctxs[i]))
		if lone := VerifyBound(p, cs[i], bound, prs[i], ctxs[i]); (lone == nil) != (oracle[i] == nil) {
			t.Errorf("bound %v, proof %d: oracle = %v, VerifyBound = %v", bound, i, oracle[i], lone)
		}
	}
	batch, err := VerifyBoundBatch(p, cs, bound, prs, ctxs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return oracle, batch
}

// TestBoundEveryValue: at every test bound, each value in [0, B] (all
// of them up to 2^10 + 1, a sample of ends and digit thresholds at
// 2^40 ± 1)
// proves and verifies under the oracle, VerifyBound and
// VerifyBoundBatch, and the
// prover refuses each value in [B + 1, 2^n + 1], n = boundWidth(B).
func TestBoundEveryValue(t *testing.T) {
	p := params()
	for _, bound := range testBounds() {
		n := boundWidth(bound)
		marks := digitMarks(t, bound)
		var cs []commit.Commitment
		var prs []BoundProof
		var ctxs []string
		for _, v := range valuesIn(new(big.Int), bound, marks) {
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
				t.Errorf("bound %v, proof %d: oracle = %v, VerifyBoundBatch = %v", bound, i, seq[i], batch[i])
			}
		}
		beyond := new(big.Int).Lsh(big.NewInt(1), uint(n))
		beyond.Add(beyond, big.NewInt(1))
		for _, v := range valuesIn(new(big.Int).Add(bound, big.NewInt(1)), beyond, marks) {
			c, o := commitBig(t, p, v)
			if _, err := ProveBound(p, c, o, bound, "refuse", nil); err == nil {
				t.Errorf("bound %v: ProveBound proved %v", bound, v)
			}
		}
	}
}

// TestBoundRejectsPowerOfTwoWeights: a value in (B, 4^(m+1)), m the
// bound's base-4 digit count, has an honest plain base-4 range proof
// with as many digits, the construction whose range is [0, 4^(m+1)) and
// whose top digit takes {0, 4^m, 2·4^m, 3·4^m}. Put in a bound proof's
// Low, it must fail the oracle, VerifyBound and VerifyBoundBatch, which
// check the top digit against the values they derive from B.
func TestBoundRejectsPowerOfTwoWeights(t *testing.T) {
	p := params()
	for _, bound := range testBounds() {
		if bound.Sign() == 0 {
			continue // [0, 0] has no base-4 alternative but [0, 1] on each side
		}
		sets, _ := rangeDigits(bound)
		plain := binary(2 * len(sets))
		var cs []commit.Commitment
		var prs []BoundProof
		var ctxs []string
		for _, v := range valuesIn(new(big.Int).Add(bound, big.NewInt(1)), plain, digitMarks(t, plain)) {
			c, o := commitBig(t, p, v)
			ctx := fmt.Sprintf("pow4/%v/%v", bound, v)
			low, err := proveRange(p, c, o, plain, ctx+"/low", nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(low.Bits) != len(sets) {
				t.Fatalf("bound %v: the base-4 proof has %d digits, want %d", bound, len(low.Bits), len(sets))
			}
			cs, prs, ctxs = append(cs, c), append(prs, BoundProof{NBits: boundWidth(bound), Low: low}), append(ctxs, ctx)
		}
		if len(prs) == 0 {
			continue // B = 4^(m+1) − 1 is plain base 4 itself
		}
		seq, batch := verifyBoth(t, p, bound, cs, prs, ctxs)
		for i := range prs {
			if seq[i] == nil || batch[i] == nil {
				t.Errorf("bound %v: a plain base-4 proof of a value above it passed: oracle = %v, VerifyBoundBatch = %v", bound, seq[i], batch[i])
			}
		}
	}
}

// TestBoundRejectsOtherBoundOfSameWidth: a proof made for B₁ fails
// under every other bound B₂ of the same bit width, whose digit count or
// top digit's values differ, however small the value it hides.
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
					t.Errorf("proof for bound %d passed under bound %d: oracle = %v, VerifyBoundBatch = %v", b1, b2, seq[i], batch[i])
				}
			}
		}
	}
}

// TestBoundHighSideShape: at B ≥ 1 a proof's High side must be empty,
// and at B = 0 it must be there. An honest proof with another proof's
// range grafted onto its High side, or with its High side removed,
// fails the oracle, VerifyBound and VerifyBoundBatch.
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
				t.Errorf("bound %d: a High side (%s) passed: oracle = %v, VerifyBoundBatch = %v", bound, name, seq[1], batch[1])
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
		t.Errorf("bound 0: a proof without its High side passed: oracle = %v, VerifyBoundBatch = %v", seq[1], batch[1])
	}
}
