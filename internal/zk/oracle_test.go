package zk

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand"
	"reflect"
	"slices"
	"testing"

	"prever/internal/commit"
	"prever/internal/ct"
)

// The direct verifiers: every equation of a proof checked on its own,
// as the verifiers stood before a lone proof was folded. They are the
// oracle the fold is tested against, and the comparison point of the
// opening batch's speedup gate. The structure checks (digitBranches,
// splitOK, recompose) are the production ones.

// directOpening checks an opening proof's one equation,
// g^z1 · h^z2 == A · C^c.
func directOpening(p *commit.Params, c commit.Commitment, pr OpeningProof, ctx string) error {
	g := p.Group
	if c.C == nil || !g.Contains(c.C) ||
		pr.A == nil || !g.Contains(pr.A) || !scalarOK(g, pr.Z1) || !scalarOK(g, pr.Z2) {
		return ErrInvalidProof
	}
	ch := openingChallenge(p, c, pr.A, ctx)
	lhs := g.Mul(p.ExpG(pr.Z1), p.ExpH(pr.Z2))
	rhs := g.Mul(pr.A, g.Exp(c.C, ch))
	if !ct.BigEqual(lhs, rhs) {
		return ErrInvalidProof
	}
	return nil
}

// directDigit checks a digit's OR proof that c hides one of values,
// branch i as h^z_i == A_i · (c/g^t_i)^c_i, over a commitment the
// caller has membership-checked.
func directDigit(p *commit.Params, c commit.Commitment, values []*big.Int, recs []BitProof, ctx string) error {
	g := p.Group
	as, cs, zs, ok := digitBranches(p, len(values), recs)
	if !ok || !splitOK(p, c, as, cs, ctx) {
		return ErrInvalidProof
	}
	for i, t := range values {
		y := c.C
		if t.Sign() != 0 {
			y = g.Div(c.C, g.Exp(p.G, t))
		}
		if !ct.BigEqual(p.ExpH(zs[i]), g.Mul(as[i], g.Exp(y, cs[i]))) {
			return ErrInvalidProof
		}
	}
	return nil
}

// directRange checks that c hides a value in [0, max]: the digits'
// value sets derived from max, the recomposition, then each digit.
func directRange(p *commit.Params, c commit.Commitment, max *big.Int, pr RangeProof, ctx string) error {
	sets, ok := rangeDigits(max)
	if !ok || len(pr.Bits) != len(sets) || len(pr.BitProofs) != recordCount(sets) {
		return ErrInvalidProof
	}
	recomposed, ok := recompose(p.Group, pr.Bits)
	if !ok || !ct.BigEqual(recomposed, c.C) {
		return ErrInvalidProof
	}
	recs := pr.BitProofs
	for j, set := range sets {
		k := len(set) / 2
		if err := directDigit(p, pr.Bits[j], set, recs[:k], digitContext(ctx, j)); err != nil {
			return ErrInvalidProof
		}
		recs = recs[k:]
	}
	return nil
}

// directBound checks that c hides a value in [0, bound].
func directBound(p *commit.Params, c commit.Commitment, bound *big.Int, pr BoundProof, ctx string) error {
	if bound == nil || bound.Sign() < 0 || pr.NBits != boundWidth(bound) {
		return ErrInvalidProof
	}
	max, twoSided := boundRange(bound)
	if !twoSided && (len(pr.High.Bits) != 0 || len(pr.High.BitProofs) != 0) {
		return ErrInvalidProof
	}
	if err := directRange(p, c, max, pr.Low, ctx+"/low"); err != nil {
		return ErrInvalidProof
	}
	if !twoSided {
		return nil
	}
	return directRange(p, p.Sub(p.CommitPublic(bound), c), max, pr.High, ctx+"/high")
}

// proveBitNegExp is ProveBit as it stood before the simulated branch
// inverted its statement: the false branch's announcement is
// h^z · Exp(y, -c), a full-width exponentiation because Exp reduces -c
// mod Q. Kept as the oracle the current ProveBit must match byte for
// byte on the same rng stream.
func proveBitNegExp(p *commit.Params, c commit.Commitment, o commit.Opening, ctx string, rng io.Reader) (BitProof, error) {
	g := p.Group
	bit := o.M.Sign()
	y0 := new(big.Int).Set(c.C)
	y1 := g.Div(c.C, p.G)
	var proof BitProof
	simC, err := randChallenge(g, rng)
	if err != nil {
		return BitProof{}, err
	}
	simZ, err := g.RandScalar(rng)
	if err != nil {
		return BitProof{}, err
	}
	k, err := g.RandScalar(rng)
	if err != nil {
		return BitProof{}, err
	}
	if bit == 0 {
		proof.A0 = p.ExpH(k)
		proof.C1, proof.Z1 = simC, simZ
		proof.A1 = g.Mul(p.ExpH(simZ), g.Exp(y1, new(big.Int).Neg(simC)))
	} else {
		proof.A1 = p.ExpH(k)
		proof.C0, proof.Z0 = simC, simZ
		proof.A0 = g.Mul(p.ExpH(simZ), g.Exp(y0, new(big.Int).Neg(simC)))
	}
	ch := digitChallenge(p, c, []*big.Int{proof.A0, proof.A1}, ctx)
	real := new(big.Int).Xor(ch, simC)
	z := new(big.Int).Mul(real, o.R)
	z.Add(z, k)
	z.Mod(z, g.Q)
	if bit == 0 {
		proof.C0, proof.Z0 = real, z
	} else {
		proof.C1, proof.Z1 = real, z
	}
	return proof, nil
}

// recomposeExp is the recomposition without Horner's rule: one Exp by
// the weight and one product per digit commitment, the weight 4^j below
// the top digit and 1 at it.
func recomposeExp(p *commit.Params, digits []commit.Commitment) *big.Int {
	g := p.Group
	out := big.NewInt(1)
	for j, d := range digits {
		w := new(big.Int).Lsh(big.NewInt(1), uint(2*j))
		if j == len(digits)-1 {
			w = big.NewInt(1)
		}
		out = g.Mul(out, g.Exp(d.C, w))
	}
	return out
}

// bitProofBytes flattens a bit proof into the bytes a wire encoding
// would carry.
func bitProofBytes(pr BitProof) [][]byte {
	var out [][]byte
	for _, v := range []*big.Int{pr.A0, pr.A1, pr.C0, pr.C1, pr.Z0, pr.Z1} {
		out = append(out, v.Bytes())
	}
	return out
}

// TestProveBitMatchesNegativeExponentRoute: on the same rng stream, the
// inverted-statement simulation yields exactly the proof the old
// Exp(y, -c) route yields, for both bits, on both groups — the two
// commits' proofs are interchangeable.
func TestProveBitMatchesNegativeExponentRoute(t *testing.T) {
	for name, p := range map[string]*commit.Params{"testGroup": params(), "modp2048": prodZKParams()} {
		for bit := int64(0); bit <= 1; bit++ {
			c, o, err := p.CommitInt(bit, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := proveBit(p, c, o, "ctx", mrand.New(mrand.NewSource(7+bit)))
			if err != nil {
				t.Fatal(err)
			}
			want, err := proveBitNegExp(p, c, o, "ctx", mrand.New(mrand.NewSource(7+bit)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bitProofBytes(got), bitProofBytes(want)) {
				t.Errorf("%s bit %d: ProveBit differs from the Exp(y, -c) route", name, bit)
			}
			if err := checkBit(p, c, got, "ctx"); err != nil {
				t.Errorf("%s bit %d: proof does not verify: %v", name, bit, err)
			}
		}
	}
}

// TestProveBitRefusesNonInvertibleCommitment: a commitment of 0 has no
// inverse to simulate with; the prover reports it instead of panicking.
func TestProveBitRefusesNonInvertibleCommitment(t *testing.T) {
	p := params()
	_, o, _ := p.CommitInt(1, nil)
	if _, err := proveBit(p, commit.Commitment{C: new(big.Int)}, o, "ctx", nil); err == nil {
		t.Fatal("ProveBit accepted a zero commitment")
	}
}

// TestBoundRoundTripBothVerifiers: ProveBound → VerifyBound and →
// VerifyBoundBatch accept on the production group and on the test group.
func TestBoundRoundTripBothVerifiers(t *testing.T) {
	for name, p := range map[string]*commit.Params{"testGroup": params(), "modp2048": prodZKParams()} {
		bound := big.NewInt(40)
		var cs []commit.Commitment
		var prs []BoundProof
		var ctxs []string
		for _, v := range []int64{0, 17, 40} {
			c, o, err := p.CommitInt(v, nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("ctx/%d", v)
			pr, err := ProveBound(p, c, o, bound, ctx, nil)
			if err != nil {
				t.Fatalf("%s: prove %d: %v", name, v, err)
			}
			if err := VerifyBound(p, c, bound, pr, ctx); err != nil {
				t.Errorf("%s: VerifyBound(%d): %v", name, v, err)
			}
			cs, prs, ctxs = append(cs, c), append(prs, pr), append(ctxs, ctx)
		}
		errs, err := VerifyBoundBatch(p, cs, bound, prs, ctxs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range errs {
			if e != nil {
				t.Errorf("%s: VerifyBoundBatch proof %d: %v", name, i, e)
			}
		}
	}
}

// TestRecomposeMatchesExpRoute: base-4 Horner times the top digit
// gives the Exp-based weighted product for every digit count a range
// proof supports, and notices a permutation of the digit commitments.
func TestRecomposeMatchesExpRoute(t *testing.T) {
	p := params()
	digits := make([]commit.Commitment, maxRangeBits/2+1)
	for j := range digits {
		x, err := p.Group.RandElement(nil)
		if err != nil {
			t.Fatal(err)
		}
		digits[j] = commit.Commitment{C: x}
	}
	for n := 1; n <= len(digits); n++ {
		got, ok := recompose(p.Group, digits[:n])
		if !ok || got.Cmp(recomposeExp(p, digits[:n])) != 0 {
			t.Fatalf("%d digits: recompose = %v, %v; want the Exp-based product", n, got, ok)
		}
	}
	swapped := append([]commit.Commitment(nil), digits[:3]...) // bound 40's digit count
	swapped[0], swapped[1] = swapped[1], swapped[0]
	got, _ := recompose(p.Group, swapped)
	if want, _ := recompose(p.Group, digits[:3]); got.Cmp(want) == 0 {
		t.Fatal("recompose is blind to the order of the digit commitments")
	}
	for _, bad := range []*big.Int{nil, new(big.Int), new(big.Int).Sub(p.Group.P, big.NewInt(1)), p.Group.P} {
		for j := 0; j < 3; j++ {
			withBad := append([]commit.Commitment(nil), digits[:3]...)
			withBad[j] = commit.Commitment{C: bad}
			if _, ok := recompose(p.Group, withBad); ok {
				t.Errorf("recompose accepted the non-member %v as digit %d", bad, j)
			}
		}
	}
}

// TestVerifiersRejectPermutedBits: a range proof whose digit
// commitments (and their proofs) swap places recomposes to a different
// value; both verifiers reject it.
func TestVerifiersRejectPermutedBits(t *testing.T) {
	p := params()
	c, o, _ := p.CommitInt(0b100110, nil)
	pr, err := proveRange(p, c, o, binary(6), "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}
	pr.Bits[0], pr.Bits[1] = pr.Bits[1], pr.Bits[0]
	// Digits 0 and 1 are base-4 digits, two records each.
	recs := pr.BitProofs
	recs[0], recs[1], recs[2], recs[3] = recs[2], recs[3], recs[0], recs[1]
	if checkRange(p, c, binary(6), pr, "ctx") == nil {
		t.Error("a lone range fold accepted permuted digit commitments")
	}
	errs := rangeBatch(t, p, []commit.Commitment{c, c}, binary(6), []RangeProof{pr, pr}, []string{"ctx", "ctx"})
	assertBatchErrs(t, errs, map[int]bool{0: true, 1: true})
}

// TestVerifiersAgreeOnDegenerateBounds: the oracle, VerifyBound and the
// batch verifier give the same verdict — reject — for a nil, a
// negative, a zero (against a proof made for 40) and a too-narrow
// bound, and the prover refuses a nil or negative bound with an error.
func TestVerifiersAgreeOnDegenerateBounds(t *testing.T) {
	p := params()
	c, o, _ := p.CommitInt(0, nil)
	pr40, err := ProveBound(p, c, o, big.NewInt(40), "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}
	pr0, err := ProveBound(p, c, o, big.NewInt(0), "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		bound  *big.Int
		proof  BoundProof
		accept bool
	}{
		{"nil", nil, pr40, false},
		{"negative", big.NewInt(-1), pr40, false},
		{"zeroAgainstProofFor40", big.NewInt(0), pr40, false},
		{"tooNarrow", big.NewInt(100), pr40, false}, // width 7, proof has NBits 6
		{"zero", big.NewInt(0), pr0, true},
		{"honest", big.NewInt(40), pr40, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oracle := directBound(p, c, tc.bound, tc.proof, "ctx")
			errs, err := VerifyBoundBatch(p, []commit.Commitment{c, c}, tc.bound, []BoundProof{tc.proof, tc.proof}, []string{"ctx", "ctx"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range errs {
				if (e == nil) != (oracle == nil) {
					t.Errorf("proof %d: oracle = %v, batch = %v", i, oracle, e)
				}
			}
			if lone := VerifyBound(p, c, tc.bound, tc.proof, "ctx"); (lone == nil) != (oracle == nil) {
				t.Errorf("oracle = %v, VerifyBound = %v", oracle, lone)
			}
			if (oracle == nil) != tc.accept {
				t.Errorf("oracle = %v, want accept = %v", oracle, tc.accept)
			}
		})
	}
	for _, bad := range []*big.Int{nil, big.NewInt(-1)} {
		if _, err := ProveBound(p, c, o, bad, "ctx", nil); err == nil {
			t.Errorf("ProveBound accepted the bound %v", bad)
		}
	}
}

// boundFields returns a pointer to every number a bound proof carries:
// each side's digit commitments, then each record's announcements,
// challenge shares and responses.
func boundFields(pr *BoundProof) []**big.Int {
	var out []**big.Int
	for _, side := range []*RangeProof{&pr.Low, &pr.High} {
		for j := range side.Bits {
			out = append(out, &side.Bits[j].C)
		}
		for r := range side.BitProofs {
			rec := &side.BitProofs[r]
			out = append(out, &rec.A0, &rec.A1, &rec.C0, &rec.C1, &rec.Z0, &rec.Z1)
		}
	}
	return out
}

// cloneBound copies a bound proof's slices, so a tamper that replaces
// one number leaves the original whole.
func cloneBound(pr BoundProof) BoundProof {
	pr.Low = RangeProof{Bits: slices.Clone(pr.Low.Bits), BitProofs: slices.Clone(pr.Low.BitProofs)}
	pr.High = RangeProof{Bits: slices.Clone(pr.High.Bits), BitProofs: slices.Clone(pr.High.BitProofs)}
	return pr
}

// TestLoneFoldMatchesOracle: VerifyBound, a fold of one proof, gives the
// oracle's verdict on a lone proof at bounds 0, 1, 5, 40 and 63 — accept
// on the honest proof, and reject on it with one field tampered. Every
// number the proof carries (each digit commitment, and each
// announcement, challenge share and response of every record, both
// sides at bound 0) is in turn plus one, its lowest bit flipped, P minus
// it and a random value below P; so are the width, the commitment and
// the context.
func TestLoneFoldMatchesOracle(t *testing.T) {
	p := params()
	g := p.Group
	tampers := map[string]func(x *big.Int) *big.Int{
		"plus one": func(x *big.Int) *big.Int { return new(big.Int).Add(x, big.NewInt(1)) },
		"bit flip": func(x *big.Int) *big.Int { return new(big.Int).Xor(x, big.NewInt(1)) },
		"P minus":  func(x *big.Int) *big.Int { return new(big.Int).Sub(g.P, x) },
		"random": func(*big.Int) *big.Int {
			v, err := rand.Int(rand.Reader, g.P)
			if err != nil {
				t.Fatal(err)
			}
			return v
		},
	}
	for _, b := range []int64{0, 1, 5, 40, 63} {
		bound := big.NewInt(b)
		c, o, err := p.CommitInt(b/2, nil)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := ProveBound(p, c, o, bound, "lone", nil)
		if err != nil {
			t.Fatal(err)
		}
		check := func(name string, c commit.Commitment, pr BoundProof, ctx string, accept bool) {
			t.Helper()
			oracle := directBound(p, c, bound, pr, ctx)
			lone := VerifyBound(p, c, bound, pr, ctx)
			if (lone == nil) != (oracle == nil) || (oracle == nil) != accept {
				t.Errorf("bound %d, %s: oracle = %v, VerifyBound = %v, want accept = %v", b, name, oracle, lone, accept)
			}
		}
		check("honest", c, pr, "lone", true)
		wide := cloneBound(pr)
		wide.NBits++
		check("width plus one", c, wide, "lone", false)
		check("commitment times g", commit.Commitment{C: g.Mul(c.C, p.G)}, pr, "lone", false)
		check("other context", c, pr, "lone/other", false)
		for k := range boundFields(&pr) {
			for name, tamper := range tampers {
				bad := cloneBound(pr)
				f := boundFields(&bad)[k]
				*f = tamper(*f)
				check(fmt.Sprintf("field %d %s", k, name), c, bad, "lone", false)
			}
		}
	}
}
