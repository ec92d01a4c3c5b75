package zk

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
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

// oneBit is a bit proof as the range layer sees it: a range proof over
// [0, 1] whose single bit commitment is c, with the bit proof made for
// ctx+"/bit0".
func oneBit(c commit.Commitment, pr BitProof) RangeProof {
	return RangeProof{Bits: []commit.Commitment{c}, BitProofs: []BitProof{pr}}
}

// TestSingleVerifiersRejectNonMembers: VerifyOpening and the range
// layer's bit check reject a statement element outside [1, Q] before
// any arithmetic. Each case has an honest proof whose statement is
// swapped for every non-member (nil used to panic), and a prover that
// runs the protocol around the twisted statement P − y, whose equations
// hold once mapped to [1, Q]: only the membership check refuses it.
func TestSingleVerifiersRejectNonMembers(t *testing.T) {
	p := params()
	one := big.NewInt(1)
	c, o, _ := p.CommitInt(0, nil)
	openPr, err := ProveOpening(p, c, o, "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}
	bitPr, err := proveBit(p, c, o, "ctx/bit0", nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		stmt   *big.Int
		verify func(stmt *big.Int) error // the honest proof against stmt
		cheat  func(ctx string) error    // a fresh proof built around P − stmt
	}{
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
			func(v *big.Int) error {
				cv := commit.Commitment{C: v}
				return verifyRange(p, cv, one, oneBit(cv, bitPr), "ctx")
			},
			func(ctx string) error {
				bad, pr := twistedBitProof(t, p, ctx+"/bit0", "C")
				return verifyRange(p, bad, one, oneBit(bad, pr), ctx)
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

// TestBatchEntryPointsCheckEveryElement: VerifyBoundBatch rejects a
// proof with any one group element replaced by its negation, whichever
// layer of the flattening holds it, and blames exactly that proof, as
// VerifyBound does. "bit" is bound 0, whose proof is a one-bit range
// proof on each side; "range" is bound 63, plain base 4 (three
// four-value digits); "bound" is bound 20, whose top digit takes
// {0, 5}. (A plain substitution also breaks
// the Fiat–Shamir hash, so this pins batch ≡ sequential, not the
// membership checks themselves; TestBatchRejectsTwistedProofs does
// that.)
func TestBatchEntryPointsCheckEveryElement(t *testing.T) {
	p := params()
	const n, bad = 4, 2
	type twist func(c *commit.Commitment, pr *BoundProof)
	check := func(t *testing.T, bound int64, twists []twist) {
		for _, tw := range twists {
			cs, prs, ctxs := makeBoundBatch(t, p, n, bound)
			tw(&cs[bad], &prs[bad])
			errs, err := VerifyBoundBatch(p, cs, big.NewInt(bound), prs, ctxs, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertBatchErrs(t, errs, map[int]bool{bad: true})
			if VerifyBound(p, cs[bad], big.NewInt(bound), prs[bad], ctxs[bad]) == nil {
				t.Error("sequential VerifyBound accepted the twisted proof")
			}
		}
	}
	twistC := func(c *commit.Commitment, _ *BoundProof) { c.C = negate(p, c.C) }

	t.Run("bit", func(t *testing.T) {
		check(t, 0, []twist{
			twistC,
			func(_ *commit.Commitment, pr *BoundProof) { pr.Low.Bits[0].C = negate(p, pr.Low.Bits[0].C) },
			func(_ *commit.Commitment, pr *BoundProof) { pr.Low.BitProofs[0].A0 = negate(p, pr.Low.BitProofs[0].A0) },
			func(_ *commit.Commitment, pr *BoundProof) { pr.High.Bits[0].C = negate(p, pr.High.Bits[0].C) },
			func(_ *commit.Commitment, pr *BoundProof) {
				pr.High.BitProofs[0].A1 = negate(p, pr.High.BitProofs[0].A1)
			},
		})
	})
	twistLow := []twist{
		twistC,
		func(_ *commit.Commitment, pr *BoundProof) { pr.Low.Bits[0].C = negate(p, pr.Low.Bits[0].C) },
		func(_ *commit.Commitment, pr *BoundProof) { pr.Low.Bits[1].C = negate(p, pr.Low.Bits[1].C) },
		func(_ *commit.Commitment, pr *BoundProof) { pr.Low.Bits[2].C = negate(p, pr.Low.Bits[2].C) },
		func(_ *commit.Commitment, pr *BoundProof) { pr.Low.BitProofs[0].A0 = negate(p, pr.Low.BitProofs[0].A0) },
		func(_ *commit.Commitment, pr *BoundProof) { pr.Low.BitProofs[2].A0 = negate(p, pr.Low.BitProofs[2].A0) },
		func(_ *commit.Commitment, pr *BoundProof) { pr.Low.BitProofs[2].A1 = negate(p, pr.Low.BitProofs[2].A1) },
		func(_ *commit.Commitment, pr *BoundProof) { pr.Low.BitProofs[1].A1 = negate(p, pr.Low.BitProofs[1].A1) },
	}
	t.Run("range", func(t *testing.T) { check(t, 63, twistLow) })
	t.Run("bound", func(t *testing.T) { check(t, 20, twistLow) })
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
	pr.C0 = new(big.Int).Xor(digitChallenge(p, c, []*big.Int{pr.A0, pr.A1}, ctx), simC)
	pr.Z0 = new(big.Int).Mul(pr.C0, r)
	pr.Z0.Add(pr.Z0, k).Mod(pr.Z0, g.Q)
	return c, pr
}

// TestBatchRejectsTwistedProofs: proofs built around a negated element
// are rejected on every attempt by the range batch — a one-bit range
// proof for a twisted C, A0 or A1, and a two-digit one over [0, 4]
// whose top digit, a bit, is a twisted commitment. The range layer
// checks each digit commitment once and hands it to the digit layer as
// checked (recomposition maps its product to [1, Q], so only Contains
// sees it).
func TestBatchRejectsTwistedProofs(t *testing.T) {
	p := params()
	const n, bad, attempts = 4, 1, 8

	for _, which := range []string{"C", "A0", "A1"} {
		cs, prs, ctxs := makeRangeBatch(t, p, n, big.NewInt(1))
		c, pr := twistedBitProof(t, p, ctxs[bad]+"/bit0", which)
		cs[bad], prs[bad] = c, oneBit(c, pr)
		for a := 0; a < attempts; a++ {
			assertBatchErrs(t, rangeBatch(t, p, cs, big.NewInt(1), prs, ctxs), map[int]bool{bad: true})
		}
		if verifyRange(p, cs[bad], big.NewInt(1), prs[bad], ctxs[bad]) == nil {
			t.Errorf("sequential verifyRange accepted a twisted %s", which)
		}
	}

	// A range proof of 0 over [0, 4] (a base-4 digit, then a top digit
	// over {0, 1}) whose top digit is twisted: C = D0 · D1.
	four := big.NewInt(4)
	cs, prs, ctxs := makeRangeBatch(t, p, n, four)
	d0, o0, err := p.CommitInt(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs0, err := proveDigit(p, d0, o0, quaternary, ctxs[bad]+"/bit0", nil)
	if err != nil {
		t.Fatal(err)
	}
	d1, pr1 := twistedBitProof(t, p, ctxs[bad]+"/bit1", "C")
	cs[bad] = commit.Commitment{C: p.Group.Mul(d0.C, d1.C)}
	prs[bad] = RangeProof{Bits: []commit.Commitment{d0, d1}, BitProofs: append(recs0, pr1)}
	if !p.Group.Contains(cs[bad].C) {
		t.Fatal("test setup: the recomposed commitment should be a member")
	}
	for a := 0; a < attempts; a++ {
		assertBatchErrs(t, rangeBatch(t, p, cs, four, prs, ctxs), map[int]bool{bad: true})
	}
	if verifyRange(p, cs[bad], four, prs[bad], ctxs[bad]) == nil {
		t.Error("sequential verifyRange accepted a twisted digit commitment")
	}
}

// TestFourValueDigitTamperRefused: at bound 40 every digit has four
// values, so two records: records 2 and 3 are digit 1's, 4 and 5 the top
// digit's over {0, 9, 17, 25}. In a batch of four honest proofs, each
// tamper below of one proof is refused by VerifyBound and by
// VerifyBoundBatch, which blames that proof alone: in every branch of
// both records of either digit, an announcement negated (a non-member)
// or times g (a member), one challenge bit flipped or the share pushed
// past the challenge space, a response plus one or plus Q; and a record
// swapped between the two digits, a digit's two records swapped, a
// record dropped and a record added.
func TestFourValueDigitTamperRefused(t *testing.T) {
	p := params()
	g := p.Group
	const n, bad = 4, 1
	bound := big.NewInt(40)
	cs, prs, ctxs := makeBoundBatch(t, p, n, 40)
	if len(prs[bad].Low.Bits) != 3 || len(prs[bad].Low.BitProofs) != 6 {
		t.Fatalf("a bound-40 proof has %d digits and %d records, want 3 and 6", len(prs[bad].Low.Bits), len(prs[bad].Low.BitProofs))
	}
	branch := func(r *BitProof, b int) (a, c, z **big.Int) {
		if b == 0 {
			return &r.A0, &r.C0, &r.Z0
		}
		return &r.A1, &r.C1, &r.Z1
	}
	type tamper struct {
		name string
		f    func(recs []BitProof) []BitProof
	}
	var tampers []tamper
	for rec := 2; rec < 6; rec++ {
		for b := 0; b < 2; b++ {
			at := func(f func(a, c, z **big.Int)) func([]BitProof) []BitProof {
				return func(recs []BitProof) []BitProof {
					f(branch(&recs[rec], b))
					return recs
				}
			}
			where := fmt.Sprintf("record %d branch %d", rec, b)
			tampers = append(tampers,
				tamper{where + ": A negated", at(func(a, _, _ **big.Int) { *a = negate(p, *a) })},
				tamper{where + ": A times g", at(func(a, _, _ **big.Int) { *a = g.Mul(*a, p.G) })},
				tamper{where + ": a challenge bit flipped", at(func(_, c, _ **big.Int) { *c = new(big.Int).Xor(*c, big.NewInt(1)) })},
				tamper{where + ": challenge past its space", at(func(_, c, _ **big.Int) {
					*c = new(big.Int).SetBit(*c, challengeWidth(g), 1)
				})},
				tamper{where + ": response plus one", at(func(_, _, z **big.Int) {
					*z = new(big.Int).Mod(new(big.Int).Add(*z, big.NewInt(1)), g.Q)
				})},
				tamper{where + ": response plus Q", at(func(_, _, z **big.Int) { *z = new(big.Int).Add(*z, g.Q) })},
			)
		}
	}
	tampers = append(tampers,
		tamper{"record swapped between digits", func(recs []BitProof) []BitProof {
			recs[2], recs[4] = recs[4], recs[2]
			return recs
		}},
		tamper{"a digit's records swapped", func(recs []BitProof) []BitProof {
			recs[4], recs[5] = recs[5], recs[4]
			return recs
		}},
		tamper{"record dropped", func(recs []BitProof) []BitProof { return recs[:5] }},
		tamper{"record added", func(recs []BitProof) []BitProof { return append(recs, recs[0]) }},
	)
	for _, tc := range tampers {
		tampered := slices.Clone(prs)
		tampered[bad].Low.BitProofs = tc.f(slices.Clone(prs[bad].Low.BitProofs))
		seq, batch := verifyBoth(t, p, bound, cs, tampered, ctxs)
		for i := range tampered {
			if want := i == bad; (seq[i] != nil) != want || (batch[i] != nil) != want {
				t.Errorf("%s: proof %d: VerifyBound = %v, VerifyBoundBatch = %v, want refused = %v", tc.name, i, seq[i], batch[i], want)
			}
		}
	}
}
