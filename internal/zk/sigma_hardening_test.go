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
	bp, err := proveBit(p, cb, ob, "ctx", nil)
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
		if checkBit(p, cb, bad, "ctx") == nil {
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
	pr, err := proveBit(p, c, o, "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := pr
	bad.A0 = nonMember(p)
	if checkBit(p, c, bad, "ctx") == nil {
		t.Error("bit proof with out-of-group A0 accepted")
	}
	bad = pr
	bad.A1 = nonMember(p)
	if checkBit(p, c, bad, "ctx") == nil {
		t.Error("bit proof with out-of-group A1 accepted")
	}
	bad = pr
	bad.A0 = nil
	if checkBit(p, c, bad, "ctx") == nil {
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
	pr, err := proveBit(p, c, o, "ctx-a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBit(p, c, pr, "ctx-a"); err != nil {
		t.Fatal(err)
	}
	if checkBit(p, c, pr, "ctx-b") == nil {
		t.Error("bit proof replayed across contexts")
	}
}

// TestRangeRejectsOversizedWidth: the verifier caps a range's width at
// the prover's 128-bit maximum, so a huge public maximum cannot drive
// unbounded work (and no honest proof is excluded).
func TestRangeRejectsOversizedWidth(t *testing.T) {
	p := params()
	c, o, err := p.CommitInt(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := proveRange(p, c, o, binary(4), "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pad to a claimed width of 129 bits: the cap fires on the width
	// before the bit count is compared.
	pr.Bits = append(pr.Bits, make([]commit.Commitment, 125)...)
	pr.BitProofs = append(pr.BitProofs, make([]BitProof, 125)...)
	if verifyRange(p, c, binary(129), pr, "ctx") == nil {
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
	pr, err := proveRange(p, c, o, binary(5), "ctx-a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if verifyRange(p, c, binary(5), pr, "ctx-b") == nil {
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

// TestAllBranchesSimulatedRefused: a prover who does not know an opening
// to any value of a digit can still simulate every branch — each branch
// equation holds — but cannot make the shares XOR to the Fiat–Shamir
// hash. A digit over {0, 1, 2, 3} committing to 5, every branch
// simulated, is refused by both verifiers, and so is the same proof
// with its last share forced to the hash's split (which breaks that
// branch's equation instead).
func TestAllBranchesSimulatedRefused(t *testing.T) {
	p := params()
	g := p.Group
	three := big.NewInt(3)
	c, _, err := p.CommitInt(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	cInv := g.Inv(c.C)
	as, cs, zs := make([]*big.Int, 4), make([]*big.Int, 4), make([]*big.Int, 4)
	for i, v := range quaternary {
		if cs[i], err = randChallenge(g, nil); err != nil {
			t.Fatal(err)
		}
		if zs[i], err = g.RandScalar(nil); err != nil {
			t.Fatal(err)
		}
		yInv := g.Mul(cInv, g.Exp(p.G, v))
		as[i] = g.Mul(p.ExpH(zs[i]), g.Exp(yInv, cs[i]))
	}
	records := func() RangeProof {
		return RangeProof{Bits: []commit.Commitment{c}, BitProofs: []BitProof{
			{A0: as[0], A1: as[1], C0: cs[0], C1: cs[1], Z0: zs[0], Z1: zs[1]},
			{A0: as[2], A1: as[3], C0: cs[2], C1: cs[3], Z0: zs[2], Z1: zs[3]},
		}}
	}
	check := func(name string, pr RangeProof) {
		if verifyRange(p, c, three, pr, "sim") == nil {
			t.Errorf("%s: verifyRange accepted it", name)
		}
		errs := make([]error, 2)
		if err := verifyRangeBatch(p, []commit.Commitment{c, c}, three, []RangeProof{pr, pr}, []string{"sim", "sim"}, nil, errs); err != nil {
			t.Fatal(err)
		}
		if errs[0] == nil || errs[1] == nil {
			t.Errorf("%s: verifyRangeBatch accepted it: %v", name, errs)
		}
	}
	check("every branch simulated", records())
	split := digitChallenge(p, c, as, "sim/bit0")
	for _, ci := range cs[:3] {
		split.Xor(split, ci)
	}
	cs[3] = split
	check("last share forced", records())
}
