package zk

import (
	"math/big"
	"testing"

	"prever/internal/commit"
)

// nonMember returns P − 1, the other encoding of 1: outside [1, Q], so
// no verifier may accept it.
func nonMember(p *commit.Params) *big.Int {
	return new(big.Int).Sub(p.Group.P, big.NewInt(1))
}

// TestVerifiersRejectNonCanonicalScalars: z and z+Q satisfy the same
// group equations (Exp reduces mod Q), so a verifier that accepts both
// hands every proof a free malleability bit. Each verifier must insist
// on canonical Z_Q scalars.
func TestVerifiersRejectNonCanonicalScalars(t *testing.T) {
	p := params()
	g := p.Group
	bump := func(z *big.Int) *big.Int { return new(big.Int).Add(z, g.Q) }

	x := big.NewInt(7)
	y := g.ExpG(x)
	dp, err := ProveDlog(g, g.G, y, x, "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDlog(g, g.G, y, dp, "ctx"); err != nil {
		t.Fatal(err)
	}
	dp.Z = bump(dp.Z)
	if VerifyDlog(g, g.G, y, dp, "ctx") == nil {
		t.Error("dlog proof with z+Q accepted")
	}

	c, o, err := p.CommitInt(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	op, err := ProveOpening(p, c, o, "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*OpeningProof){
		func(pr *OpeningProof) { pr.Z1 = bump(pr.Z1) },
		func(pr *OpeningProof) { pr.Z2 = bump(pr.Z2) },
		func(pr *OpeningProof) { pr.Z1 = new(big.Int).Neg(pr.Z1) },
	} {
		bad := op
		mutate(&bad)
		if VerifyOpening(p, c, bad, "ctx") == nil {
			t.Error("opening proof with non-canonical scalar accepted")
		}
	}

	cb, ob, err := p.CommitInt(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := ProveBit(p, cb, ob, "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*BitProof){
		func(pr *BitProof) { pr.Z0 = bump(pr.Z0) },
		func(pr *BitProof) { pr.Z1 = bump(pr.Z1) },
		func(pr *BitProof) { pr.C0 = bump(pr.C0) },
		func(pr *BitProof) { pr.C1 = bump(pr.C1) },
	} {
		bad := bp
		mutate(&bad)
		if VerifyBit(p, cb, bad, "ctx") == nil {
			t.Error("bit proof with non-canonical scalar accepted")
		}
	}
}

// TestVerifyBitRejectsOutOfGroupAnnouncements: announcements must be
// group elements in [1, Q]; P − 1 is not a valid transcript element even
// if the equations happen to balance.
func TestVerifyBitRejectsOutOfGroupAnnouncements(t *testing.T) {
	p := params()
	c, o, err := p.CommitInt(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ProveBit(p, c, o, "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := pr
	bad.A0 = nonMember(p)
	if VerifyBit(p, c, bad, "ctx") == nil {
		t.Error("bit proof with out-of-group A0 accepted")
	}
	bad = pr
	bad.A1 = nonMember(p)
	if VerifyBit(p, c, bad, "ctx") == nil {
		t.Error("bit proof with out-of-group A1 accepted")
	}
	bad = pr
	bad.A0 = nil
	if VerifyBit(p, c, bad, "ctx") == nil {
		t.Error("truncated bit proof (nil A0) accepted")
	}
}

// TestBitContextBinding: a bit proof for one context must not verify
// under another (the challenge hashes ctx, C, A0, A1).
func TestBitContextBinding(t *testing.T) {
	p := params()
	c, o, err := p.CommitInt(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ProveBit(p, c, o, "ctx-a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBit(p, c, pr, "ctx-a"); err != nil {
		t.Fatal(err)
	}
	if VerifyBit(p, c, pr, "ctx-b") == nil {
		t.Error("bit proof replayed across contexts")
	}
}

// TestRangeRejectsOversizedWidth: the verifier caps nBits at the
// prover's 128-bit maximum, so attacker-chosen widths cannot drive
// unbounded work (and no honest proof is excluded).
func TestRangeRejectsOversizedWidth(t *testing.T) {
	p := params()
	c, o, err := p.CommitInt(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ProveRange(p, c, o, 4, "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pad to a claimed width of 129: count disagreement and cap both fire.
	pr.Bits = append(pr.Bits, make([]commit.Commitment, 125)...)
	pr.BitProofs = append(pr.BitProofs, make([]BitProof, 125)...)
	if VerifyRange(p, c, 129, pr, "ctx") == nil {
		t.Error("129-bit range proof accepted")
	}
}

// TestRangeContextBinding and TestBoundContextBinding: composite proofs
// inherit per-bit contexts from the caller context; replay under a
// different context must fail.
func TestRangeContextBinding(t *testing.T) {
	p := params()
	c, o, err := p.CommitInt(9, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ProveRange(p, c, o, 5, "ctx-a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if VerifyRange(p, c, 5, pr, "ctx-b") == nil {
		t.Error("range proof replayed across contexts")
	}
}

func TestBoundContextBinding(t *testing.T) {
	p := params()
	c, o, err := p.CommitInt(9, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ProveBound(p, c, o, big.NewInt(40), "ctx-a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if VerifyBound(p, c, big.NewInt(40), pr, "ctx-b") == nil {
		t.Error("bound proof replayed across contexts")
	}
}

func TestEqualContextBinding(t *testing.T) {
	p := params()
	c1, o1, err := p.CommitInt(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, o2, err := p.CommitInt(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ProveEqual(p, c1, c2, o1, o2, "ctx-a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if VerifyEqual(p, c1, c2, pr, "ctx-b") == nil {
		t.Error("equality proof replayed across contexts")
	}
}

// TestEqualProofDoesNotTransferToScaledPair is the regression test for
// the equal-proof statement-binding fix: (c1·t, c2·t) has the same
// quotient as (c1, c2), so a challenge that binds only the quotient
// would let a proof for one pair "prove" equality of the other —
// commitments the prover never opened.
func TestEqualProofDoesNotTransferToScaledPair(t *testing.T) {
	p := params()
	c1, o1, err := p.CommitInt(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, o2, err := p.CommitInt(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ProveEqual(p, c1, c2, o1, o2, "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEqual(p, c1, c2, pr, "ctx"); err != nil {
		t.Fatal(err)
	}
	// Scale both commitments by the same factor t = g^5 h^3.
	tc := p.CommitWith(big.NewInt(5), big.NewInt(3))
	s1 := p.Add(c1, tc)
	s2 := p.Add(c2, tc)
	if VerifyEqual(p, s1, s2, pr, "ctx") == nil {
		t.Error("equality proof transferred to a scaled commitment pair")
	}
}
