package zk

import (
	"errors"
	"fmt"
	"math/big"
	"testing"

	"prever/internal/commit"
)

// negate returns P − x: the other encoding of x's element, which
// Contains refuses. It satisfies every equation x does once results are
// mapped to [1, Q], so a verifier that took it would give one proof a
// second byte string.
func negate(p *commit.Params, x *big.Int) *big.Int {
	return new(big.Int).Sub(p.Group.P, x)
}

// makeBitBatch produces n honest (commitment, bit proof, ctx) triples:
// the single bit of a width-1 range proof.
func makeBitBatch(t *testing.T, p *commit.Params, n int) ([]commit.Commitment, []BitProof, []string) {
	t.Helper()
	_, rprs, ctxs := makeRangeBatch(t, p, n, 1)
	cs := make([]commit.Commitment, n)
	prs := make([]BitProof, n)
	for i := range rprs {
		cs[i], prs[i], ctxs[i] = rprs[i].Bits[0], rprs[i].BitProofs[0], ctxs[i]+"/bit0"
	}
	return cs, prs, ctxs
}

// nonMembers maps a statement element c to the values no verifier may
// take in its place: nil, the two residues with no inverse (0, P), P − 1
// (the other encoding of 1), and P − c (the other encoding of c).
func nonMembers(p *commit.Params) map[string]func(c *big.Int) *big.Int {
	return map[string]func(c *big.Int) *big.Int{
		"nil":     func(*big.Int) *big.Int { return nil },
		"zero":    func(*big.Int) *big.Int { return big.NewInt(0) },
		"P":       func(*big.Int) *big.Int { return new(big.Int).Set(p.Group.P) },
		"P-1":     func(*big.Int) *big.Int { return new(big.Int).Sub(p.Group.P, big.NewInt(1)) },
		"twisted": func(c *big.Int) *big.Int { return negate(p, c) },
	}
}

// TestVerifyEqualRejectsNonMembers: VerifyEqual divides one commitment
// by the other, so a commitment with no inverse (0, P) used to reach a
// nil dereference inside group.Div, and a twisted one (P − c) is an
// encoding outside [1, Q]. All are invalid proofs, not panics.
func TestVerifyEqualRejectsNonMembers(t *testing.T) {
	p := params()
	c1, o1, _ := p.CommitInt(77, nil)
	c2, o2, _ := p.CommitInt(77, nil)
	pr, err := ProveEqual(p, c1, c2, o1, o2, "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range nonMembers(p) {
		if err := VerifyEqual(p, commit.Commitment{C: f(c1.C)}, c2, pr, "ctx"); !errors.Is(err, ErrInvalidProof) {
			t.Errorf("c1 = %s: err = %v, want ErrInvalidProof", name, err)
		}
		if err := VerifyEqual(p, c1, commit.Commitment{C: f(c2.C)}, pr, "ctx"); !errors.Is(err, ErrInvalidProof) {
			t.Errorf("c2 = %s: err = %v, want ErrInvalidProof", name, err)
		}
	}
}

// TestSingleVerifiersRejectNonMembers: VerifyDlog, VerifyOpening and
// VerifyBit reject a statement element outside [1, Q] before any
// arithmetic. Each case has an honest proof whose statement is swapped
// for every non-member (nil used to panic), and a prover that runs the
// protocol around the twisted statement P − y, whose equations hold once
// mapped to [1, Q]: only the membership check refuses it.
func TestSingleVerifiersRejectNonMembers(t *testing.T) {
	p := params()
	g := p.Group
	x, err := g.RandScalar(nil)
	if err != nil {
		t.Fatal(err)
	}
	y := g.Exp(g.G, x)
	dlogPr, err := ProveDlog(g, g.G, y, x, "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}
	c, o, _ := p.CommitInt(0, nil)
	openPr, err := ProveOpening(p, c, o, "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}
	bitPr, err := ProveBit(p, c, o, "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		stmt   *big.Int
		verify func(stmt *big.Int) error // the honest proof against stmt
		cheat  func(ctx string) error    // a fresh proof built around P − stmt
	}{
		{"dlog", y,
			func(v *big.Int) error { return VerifyDlog(g, g.G, v, dlogPr, "ctx") },
			func(ctx string) error {
				bad := negate(p, y)
				pr, err := ProveDlog(g, g.G, bad, x, ctx, nil)
				if err != nil {
					t.Fatal(err)
				}
				return VerifyDlog(g, g.G, bad, pr, ctx)
			}},
		{"opening", c.C,
			func(v *big.Int) error { return VerifyOpening(p, commit.Commitment{C: v}, openPr, "ctx") },
			func(ctx string) error {
				bad := commit.Commitment{C: negate(p, c.C)}
				pr, err := ProveOpening(p, bad, o, ctx, nil)
				if err != nil {
					t.Fatal(err)
				}
				return VerifyOpening(p, bad, pr, ctx)
			}},
		{"bit", c.C,
			func(v *big.Int) error { return VerifyBit(p, commit.Commitment{C: v}, bitPr, "ctx") },
			func(ctx string) error {
				bad, pr := twistedBitProof(t, p, ctx, "C")
				return VerifyBit(p, bad, pr, ctx)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.verify(tc.stmt); err != nil {
				t.Fatalf("honest proof rejected: %v", err)
			}
			for name, f := range nonMembers(p) {
				if err := tc.verify(f(tc.stmt)); !errors.Is(err, ErrInvalidProof) {
					t.Errorf("statement = %s: err = %v, want ErrInvalidProof", name, err)
				}
			}
			for a := 0; a < 16; a++ {
				if err := tc.cheat(fmt.Sprintf("ctx/%d", a)); !errors.Is(err, ErrInvalidProof) {
					t.Errorf("attempt %d: proof around a twisted statement: err = %v, want ErrInvalidProof", a, err)
				}
			}
		})
	}
}

// TestBatchEntryPointsCheckEveryElement: the exported batch verifiers
// reject a proof with any one group element replaced by its negation,
// whichever layer of the flattening holds it, and blame exactly that
// proof, as the sequential verifier does. (A plain substitution also
// breaks the Fiat–Shamir hash, so this pins batch ≡ sequential, not the
// membership checks themselves; TestBatchRejectsTwistedProofs does that.)
func TestBatchEntryPointsCheckEveryElement(t *testing.T) {
	p := params()
	const n, bad = 4, 2

	t.Run("bit", func(t *testing.T) {
		for _, twist := range []func(c *commit.Commitment, pr *BitProof){
			func(c *commit.Commitment, _ *BitProof) { c.C = negate(p, c.C) },
			func(_ *commit.Commitment, pr *BitProof) { pr.A0 = negate(p, pr.A0) },
			func(_ *commit.Commitment, pr *BitProof) { pr.A1 = negate(p, pr.A1) },
		} {
			cs, prs, ctxs := makeBitBatch(t, p, n)
			twist(&cs[bad], &prs[bad])
			errs, err := VerifyBitBatch(p, cs, prs, ctxs, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertBatchErrs(t, errs, map[int]bool{bad: true})
			if VerifyBit(p, cs[bad], prs[bad], ctxs[bad]) == nil {
				t.Error("sequential VerifyBit accepted the twisted proof")
			}
		}
	})

	twistRange := []func(c *commit.Commitment, pr *RangeProof){
		func(c *commit.Commitment, _ *RangeProof) { c.C = negate(p, c.C) },
		func(_ *commit.Commitment, pr *RangeProof) { pr.Bits[1].C = negate(p, pr.Bits[1].C) },
		func(_ *commit.Commitment, pr *RangeProof) { pr.BitProofs[0].A0 = negate(p, pr.BitProofs[0].A0) },
		func(_ *commit.Commitment, pr *RangeProof) { pr.BitProofs[2].A1 = negate(p, pr.BitProofs[2].A1) },
	}
	t.Run("range", func(t *testing.T) {
		for _, twist := range twistRange {
			cs, prs, ctxs := makeRangeBatch(t, p, n, 3)
			twist(&cs[bad], &prs[bad])
			errs, err := VerifyRangeBatch(p, cs, 3, prs, ctxs, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertBatchErrs(t, errs, map[int]bool{bad: true})
			if VerifyRange(p, cs[bad], 3, prs[bad], ctxs[bad]) == nil {
				t.Error("sequential VerifyRange accepted the twisted proof")
			}
		}
	})

	t.Run("bound", func(t *testing.T) {
		bound := big.NewInt(5)
		for _, side := range []func(pr *BoundProof) *RangeProof{
			func(pr *BoundProof) *RangeProof { return &pr.Low },
			func(pr *BoundProof) *RangeProof { return &pr.High },
		} {
			for _, twist := range twistRange {
				cs, prs, ctxs := makeBoundBatch(t, p, n, 5)
				twist(&cs[bad], side(&prs[bad]))
				errs, err := VerifyBoundBatch(p, cs, bound, prs, ctxs, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertBatchErrs(t, errs, map[int]bool{bad: true})
				if VerifyBound(p, cs[bad], bound, prs[bad], ctxs[bad]) == nil {
					t.Error("sequential VerifyBound accepted the twisted proof")
				}
			}
		}
	})
}

// twistedBitProof is a cheating prover: it commits to 0 as C = h^r and
// runs ProveBit's protocol, but negates one of C, A0, A1 BEFORE the
// Fiat–Shamir hash, so the challenge split and all scalars are
// consistent with the twisted encoding and both verification equations
// hold once mapped to [1, Q]. Only the membership check rejects such a
// proof: a fold's products are mapped to [1, Q] too.
func twistedBitProof(t *testing.T, p *commit.Params, ctx, which string) (commit.Commitment, BitProof) {
	t.Helper()
	g := p.Group
	scalar := func() *big.Int {
		v, err := g.RandScalar(nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	r, k, simZ := scalar(), scalar(), scalar()
	simC, err := randChallenge(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := commit.Commitment{C: p.ExpH(r)}
	if which == "C" {
		c.C = negate(p, c.C)
	}
	y1 := g.Mul(c.C, p.GInv())
	pr := BitProof{
		A0: p.ExpH(k),
		A1: g.Div(p.ExpH(simZ), g.Exp(y1, simC)),
		C1: simC, Z1: simZ,
	}
	switch which {
	case "A0":
		pr.A0 = negate(p, pr.A0)
	case "A1":
		pr.A1 = negate(p, pr.A1)
	}
	pr.C0 = new(big.Int).Xor(bitChallenge(p, c, pr.A0, pr.A1, ctx), simC)
	pr.Z0 = new(big.Int).Mul(pr.C0, r)
	pr.Z0.Add(pr.Z0, k).Mod(pr.Z0, g.Q)
	return c, pr
}

// TestBatchRejectsTwistedProofs: proofs built around a negated element
// are rejected on every attempt — by VerifyBitBatch for a twisted C, A0
// or A1, and by VerifyRangeBatch for a twisted bit commitment, which
// the range layer checks once and hands to the bit layer as checked
// (recomposition maps its product to [1, Q], so only Contains sees it).
func TestBatchRejectsTwistedProofs(t *testing.T) {
	p := params()
	const n, bad, attempts = 4, 1, 8

	for _, which := range []string{"C", "A0", "A1"} {
		cs, prs, ctxs := makeBitBatch(t, p, n)
		cs[bad], prs[bad] = twistedBitProof(t, p, ctxs[bad], which)
		for a := 0; a < attempts; a++ {
			errs, err := VerifyBitBatch(p, cs, prs, ctxs, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertBatchErrs(t, errs, map[int]bool{bad: true})
		}
	}

	// A 2-bit range proof of 0 whose bit 1 is twisted: C = B0 · B1².
	cs, prs, ctxs := makeRangeBatch(t, p, n, 2)
	b0, o0, err := p.CommitInt(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr0, err := ProveBit(p, b0, o0, ctxs[bad]+"/bit0", nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, pr1 := twistedBitProof(t, p, ctxs[bad]+"/bit1", "C")
	cs[bad] = commit.Commitment{C: p.Group.Mul(b0.C, p.Group.Mul(b1.C, b1.C))}
	prs[bad] = RangeProof{Bits: []commit.Commitment{b0, b1}, BitProofs: []BitProof{pr0, pr1}}
	if !p.Group.Contains(cs[bad].C) {
		t.Fatal("test setup: the recomposed commitment should be a member")
	}
	for a := 0; a < attempts; a++ {
		errs, err := VerifyRangeBatch(p, cs, 2, prs, ctxs, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertBatchErrs(t, errs, map[int]bool{bad: true})
	}
	if VerifyRange(p, cs[bad], 2, prs[bad], ctxs[bad]) == nil {
		t.Error("sequential VerifyRange accepted a twisted bit commitment")
	}
}
