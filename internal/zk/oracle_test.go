package zk

import (
	"fmt"
	"io"
	"math/big"
	mrand "math/rand"
	"reflect"
	"testing"

	"prever/internal/commit"
)

// proveBitNegExp is ProveBit as it stood before the simulated branch
// inverted its statement: the false branch's announcement is
// h^z · Exp(y, -c), a full-width exponentiation because Exp reduces -c
// mod Q. Kept as the oracle the current ProveBit must match byte for
// byte on the same rng stream.
func proveBitNegExp(p *commit.Params, c commit.Commitment, o commit.Opening, ctx string, rng io.Reader) (BitProof, error) {
	g := p.Group
	bit := o.M.Sign()
	y0 := new(big.Int).Set(c.C)
	y1 := g.Mul(c.C, p.GInv())
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
	ch := bitChallenge(p, c, proof.A0, proof.A1, ctx)
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
// the weight and one product per bit commitment, the weight 2^j below
// the top bit and top at it.
func recomposeExp(p *commit.Params, bits []commit.Commitment, top *big.Int) *big.Int {
	g := p.Group
	out := big.NewInt(1)
	for j, b := range bits {
		w := new(big.Int).Lsh(big.NewInt(1), uint(j))
		if j == len(bits)-1 {
			w = top
		}
		out = g.Mul(out, g.Exp(b.C, w))
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
			got, err := ProveBit(p, c, o, "ctx", mrand.New(mrand.NewSource(7+bit)))
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
	if _, err := ProveBit(p, commit.Commitment{C: new(big.Int)}, o, "ctx", nil); err == nil {
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

// TestRecomposeMatchesExpRoute: Horner's rule and the top-weight
// exponentiation give the Exp-based weighted product for every width a
// range proof supports, at the plain-binary top weight 2^(n−1) and at
// the smallest (1) and a random one, and notice a permutation of the
// bit commitments.
func TestRecomposeMatchesExpRoute(t *testing.T) {
	p := params()
	bits := make([]commit.Commitment, 128)
	for j := range bits {
		x, err := p.Group.RandElement(nil)
		if err != nil {
			t.Fatal(err)
		}
		bits[j] = commit.Commitment{C: x}
	}
	rng := mrand.New(mrand.NewSource(1))
	for n := 1; n <= len(bits); n++ {
		half := new(big.Int).Lsh(big.NewInt(1), uint(n-1))
		random := new(big.Int).Add(new(big.Int).Rand(rng, half), big.NewInt(1))
		for _, top := range []*big.Int{half, big.NewInt(1), random} {
			got, ok := recompose(p.Group, bits[:n], top)
			if !ok || got.Cmp(recomposeExp(p, bits[:n], top)) != 0 {
				t.Fatalf("width %d, top weight %v: recompose = %v, %v; want the Exp-based product", n, top, got, ok)
			}
		}
	}
	top := big.NewInt(9) // bound 40's top weight
	swapped := append([]commit.Commitment(nil), bits[:6]...)
	swapped[1], swapped[4] = swapped[4], swapped[1]
	got, _ := recompose(p.Group, swapped, top)
	if want, _ := recompose(p.Group, bits[:6], top); got.Cmp(want) == 0 {
		t.Fatal("recompose is blind to the order of the bit commitments")
	}
	for _, bad := range []*big.Int{nil, new(big.Int), new(big.Int).Sub(p.Group.P, big.NewInt(1)), p.Group.P} {
		withBad := append([]commit.Commitment(nil), bits[:6]...)
		withBad[3] = commit.Commitment{C: bad}
		if _, ok := recompose(p.Group, withBad, top); ok {
			t.Errorf("recompose accepted the non-member %v", bad)
		}
	}
}

// TestVerifiersRejectPermutedBits: a range proof whose bit commitments
// (and their proofs) swap places recomposes to a different value; both
// verifiers reject it.
func TestVerifiersRejectPermutedBits(t *testing.T) {
	p := params()
	c, o, _ := p.CommitInt(0b100110, nil)
	pr, err := proveRange(p, c, o, binary(6), "ctx", nil)
	if err != nil {
		t.Fatal(err)
	}
	pr.Bits[0], pr.Bits[1] = pr.Bits[1], pr.Bits[0]
	pr.BitProofs[0], pr.BitProofs[1] = pr.BitProofs[1], pr.BitProofs[0]
	if verifyRange(p, c, binary(6), pr, "ctx") == nil {
		t.Error("verifyRange accepted permuted bit commitments")
	}
	errs := rangeBatch(t, p, []commit.Commitment{c, c}, binary(6), []RangeProof{pr, pr}, []string{"ctx", "ctx"})
	assertBatchErrs(t, errs, map[int]bool{0: true, 1: true})
}

// TestVerifiersAgreeOnDegenerateBounds: the sequential and the batch
// verifier give the same verdict — reject — for a nil, a negative, a
// zero (against a proof made for 40) and a too-narrow bound, and the
// prover refuses a nil or negative bound with an error.
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
			seq := VerifyBound(p, c, tc.bound, tc.proof, "ctx")
			errs, err := VerifyBoundBatch(p, []commit.Commitment{c, c}, tc.bound, []BoundProof{tc.proof, tc.proof}, []string{"ctx", "ctx"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range errs {
				if (e == nil) != (seq == nil) {
					t.Errorf("proof %d: sequential = %v, batch = %v", i, seq, e)
				}
			}
			if (seq == nil) != tc.accept {
				t.Errorf("VerifyBound = %v, want accept = %v", seq, tc.accept)
			}
		})
	}
	for _, bad := range []*big.Int{nil, big.NewInt(-1)} {
		if _, err := ProveBound(p, c, o, bad, "ctx", nil); err == nil {
			t.Errorf("ProveBound accepted the bound %v", bad)
		}
	}
}
