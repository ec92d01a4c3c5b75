package zk

import (
	"io"
	"math/big"
	"testing"
	"testing/quick"

	"prever/internal/commit"
	"prever/internal/group"
)

func params() *commit.Params { return commit.NewParams(group.TestGroup()) }

// binary returns 2^n − 1, the maximum of a plain n-bit range proof.
func binary(n int) *big.Int {
	return new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(n)), big.NewInt(1))
}

// bitValues is a bit's value set: a digit over [0, 1].
var bitValues = []*big.Int{big.NewInt(0), big.NewInt(1)}

// proveBit is a bit proof: the one record of a two-value digit over
// {0, 1}, as a range proof over [0, 1] makes it.
func proveBit(p *commit.Params, c commit.Commitment, o commit.Opening, ctx string, rng io.Reader) (BitProof, error) {
	recs, err := proveDigit(p, c, o, bitValues, ctx, rng)
	if err != nil {
		return BitProof{}, err
	}
	return recs[0], nil
}

// checkBit is a lone bit proof through the production verifier, as
// the range layer runs it: Contains on the commitment, then a digit
// fold of one over {0, 1}.
func checkBit(p *commit.Params, c commit.Commitment, pr BitProof, ctx string) error {
	if c.C == nil || !p.Group.Contains(c.C) {
		return ErrInvalidProof
	}
	errs := make([]error, 1)
	if err := verifyDigitBatch(p, []digitClaim{{c, bitValues, []BitProof{pr}, ctx}}, nil, errs); err != nil {
		return err
	}
	return errs[0]
}

// checkRange is a lone range proof through the production verifier: a
// range fold of one, whose recomposition check refuses a commitment
// outside the group as the product of members never equals it.
func checkRange(p *commit.Params, c commit.Commitment, max *big.Int, pr RangeProof, ctx string) error {
	errs := make([]error, 1)
	if err := verifyRangeBatch(p, []commit.Commitment{c}, max, []RangeProof{pr}, []string{ctx}, nil, errs); err != nil {
		return err
	}
	return errs[0]
}

// verifyOpeningLone is VerifyOpeningBatch of one proof.
func verifyOpeningLone(p *commit.Params, c commit.Commitment, pr OpeningProof, ctx string) error {
	errs, err := VerifyOpeningBatch(p, []commit.Commitment{c}, []OpeningProof{pr}, []string{ctx}, nil)
	if err != nil {
		return err
	}
	return errs[0]
}

func TestOpeningRoundTrip(t *testing.T) {
	p := params()
	c, o, _ := p.CommitInt(123, nil)
	pr, err := ProveOpening(p, c, o, "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyOpeningLone(p, c, pr, "ctx"); err != nil {
		t.Fatal(err)
	}
	// Wrong commitment must fail.
	c2, _, _ := p.CommitInt(123, nil)
	if verifyOpeningLone(p, c2, pr, "ctx") == nil {
		t.Fatal("opening proof transferred to another commitment")
	}
	if verifyOpeningLone(p, c, pr, "other") == nil {
		t.Fatal("opening proof replayed under another context")
	}
}

func TestBitRoundTrip(t *testing.T) {
	p := params()
	for _, b := range []int64{0, 1} {
		c, o, _ := p.CommitInt(b, nil)
		pr, err := proveBit(p, c, o, "ctx", nil)
		if err != nil {
			t.Fatalf("prove bit %d: %v", b, err)
		}
		if err := checkBit(p, c, pr, "ctx"); err != nil {
			t.Fatalf("verify bit %d: %v", b, err)
		}
	}
}

func TestBitRefusesNonBit(t *testing.T) {
	p := params()
	c, o, _ := p.CommitInt(2, nil)
	if _, err := proveBit(p, c, o, "ctx", nil); err == nil {
		t.Fatal("prover produced a bit proof for 2")
	}
}

func TestBitRejectsTamper(t *testing.T) {
	p := params()
	c, o, _ := p.CommitInt(1, nil)
	pr, _ := proveBit(p, c, o, "ctx", nil)
	pr.Z0 = new(big.Int).Add(pr.Z0, big.NewInt(1))
	if checkBit(p, c, pr, "ctx") == nil {
		t.Fatal("tampered bit proof verified")
	}
	// Challenge-split tampering must also fail.
	pr2, _ := proveBit(p, c, o, "ctx", nil)
	pr2.C0 = new(big.Int).Add(pr2.C0, big.NewInt(1))
	if checkBit(p, c, pr2, "ctx") == nil {
		t.Fatal("challenge-tampered bit proof verified")
	}
}

func TestBitProofDoesNotTransferToOtherCommitment(t *testing.T) {
	p := params()
	c1, o1, _ := p.CommitInt(1, nil)
	c2, _, _ := p.CommitInt(1, nil)
	pr, _ := proveBit(p, c1, o1, "ctx", nil)
	if checkBit(p, c2, pr, "ctx") == nil {
		t.Fatal("bit proof transferred between commitments")
	}
}

func TestRangeRoundTrip(t *testing.T) {
	p := params()
	for _, v := range []int64{0, 1, 7, 100, 255} {
		c, o, _ := p.CommitInt(v, nil)
		pr, err := proveRange(p, c, o, binary(8), "ctx", nil)
		if err != nil {
			t.Fatalf("prove range %d: %v", v, err)
		}
		if err := checkRange(p, c, binary(8), pr, "ctx"); err != nil {
			t.Fatalf("verify range %d: %v", v, err)
		}
	}
}

func TestRangeRefusesOutOfRange(t *testing.T) {
	p := params()
	c, o, _ := p.CommitInt(256, nil)
	if _, err := proveRange(p, c, o, binary(8), "ctx", nil); err == nil {
		t.Fatal("prover produced a range proof for 256 in [0,256)")
	}
	cn, on, _ := p.CommitInt(-1, nil)
	if _, err := proveRange(p, cn, on, binary(8), "ctx", nil); err == nil {
		t.Fatal("prover produced a range proof for -1")
	}
}

func TestRangeRejectsWrongCommitment(t *testing.T) {
	p := params()
	c, o, _ := p.CommitInt(100, nil)
	pr, _ := proveRange(p, c, o, binary(8), "ctx", nil)
	c2, _, _ := p.CommitInt(100, nil)
	if checkRange(p, c2, binary(8), pr, "ctx") == nil {
		t.Fatal("range proof transferred to another commitment")
	}
}

func TestRangeRejectsWidthMismatch(t *testing.T) {
	p := params()
	c, o, _ := p.CommitInt(100, nil)
	pr, _ := proveRange(p, c, o, binary(8), "ctx", nil)
	if checkRange(p, c, binary(9), pr, "ctx") == nil {
		t.Fatal("width-mismatched range proof verified")
	}
}

func TestRangeRejectsBitSubstitution(t *testing.T) {
	p := params()
	c, o, _ := p.CommitInt(100, nil)
	pr, _ := proveRange(p, c, o, binary(8), "ctx", nil)
	// Substitute digit 1 (records 2 and 3) with a fresh commitment to 1
	// and its honest digit proof.
	forged, fo, _ := p.CommitInt(1, nil)
	recs, err := proveDigit(p, forged, fo, quaternary, "ctx/bit1", nil)
	if err != nil {
		t.Fatal(err)
	}
	pr.Bits[1] = forged
	copy(pr.BitProofs[2:4], recs)
	if checkRange(p, c, binary(8), pr, "ctx") == nil {
		t.Fatal("digit-substituted range proof verified")
	}
}

func TestBoundRoundTrip(t *testing.T) {
	p := params()
	bound := big.NewInt(40)
	for _, v := range []int64{0, 1, 39, 40} {
		c, o, _ := p.CommitInt(v, nil)
		pr, err := ProveBound(p, c, o, bound, "ctx", nil)
		if err != nil {
			t.Fatalf("prove bound %d: %v", v, err)
		}
		if err := VerifyBound(p, c, bound, pr, "ctx"); err != nil {
			t.Fatalf("verify bound %d: %v", v, err)
		}
	}
}

func TestBoundRefusesViolation(t *testing.T) {
	p := params()
	bound := big.NewInt(40)
	c, o, _ := p.CommitInt(41, nil)
	if _, err := ProveBound(p, c, o, bound, "ctx", nil); err == nil {
		t.Fatal("prover produced a bound proof for 41 <= 40")
	}
}

func TestBoundRejectsDifferentBound(t *testing.T) {
	p := params()
	c, o, _ := p.CommitInt(39, nil)
	pr, _ := ProveBound(p, c, o, big.NewInt(40), "ctx", nil)
	// The same proof must not verify for a tighter bound.
	if VerifyBound(p, c, big.NewInt(30), pr, "ctx") == nil {
		t.Fatal("bound proof verified for a different bound")
	}
}

// Property: bound proofs round trip for random (v, B) with 0 <= v <= B.
func TestQuickBound(t *testing.T) {
	p := params()
	f := func(rawV, rawB uint16) bool {
		b := int64(rawB%200) + 1
		v := int64(rawV) % (b + 1)
		c, o, err := p.CommitInt(v, nil)
		if err != nil {
			return false
		}
		pr, err := ProveBound(p, c, o, big.NewInt(b), "q", nil)
		if err != nil {
			return false
		}
		return VerifyBound(p, c, big.NewInt(b), pr, "q") == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProveBound40(b *testing.B) {
	p := params()
	bound := big.NewInt(40)
	c, o, _ := p.CommitInt(25, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProveBound(p, c, o, bound, "bench", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyBound40(b *testing.B) {
	p := params()
	bound := big.NewInt(40)
	c, o, _ := p.CommitInt(25, nil)
	pr, _ := ProveBound(p, c, o, bound, "bench", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyBound(p, c, bound, pr, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
