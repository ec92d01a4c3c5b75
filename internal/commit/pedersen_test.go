package commit

import (
	"math/big"
	"testing"
	"testing/quick"

	"prever/internal/group"
)

func params() *Params { return NewParams(group.TestGroup()) }

// verify checks that an opening matches a commitment.
func verify(p *Params, c Commitment, o Opening) bool {
	return p.CommitWith(o.M, o.R).Equal(c)
}

func TestCommitVerifyRoundTrip(t *testing.T) {
	p := params()
	for _, m := range []int64{0, 1, -1, 42, 1 << 40} {
		c, o, err := p.CommitInt(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !verify(p, c, o) {
			t.Fatalf("valid opening rejected for m=%d", m)
		}
	}
}

func TestCommitIsHiding(t *testing.T) {
	p := params()
	a, _, _ := p.CommitInt(7, nil)
	b, _, _ := p.CommitInt(7, nil)
	if a.Equal(b) {
		t.Fatal("two commitments to the same value are identical")
	}
}

func TestVerifyRejectsWrongOpening(t *testing.T) {
	p := params()
	c, o, _ := p.CommitInt(7, nil)
	badM := Opening{M: big.NewInt(8), R: o.R}
	if verify(p, c, badM) {
		t.Fatal("wrong message accepted")
	}
	badR := Opening{M: o.M, R: new(big.Int).Add(o.R, big.NewInt(1))}
	if verify(p, c, badR) {
		t.Fatal("wrong randomness accepted")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	p := params()
	ca, oa, _ := p.CommitInt(15, nil)
	cb, ob, _ := p.CommitInt(27, nil)
	sum := p.Add(ca, cb)
	oSum := p.AddOpenings(oa, ob)
	if oSum.M.Int64() != 42 {
		t.Fatalf("combined opening message = %v", oSum.M)
	}
	if !verify(p, sum, oSum) {
		t.Fatal("combined opening does not verify")
	}
}

func TestHomomorphicSub(t *testing.T) {
	p := params()
	ca, oa, _ := p.CommitInt(50, nil)
	cb, ob, _ := p.CommitInt(8, nil)
	diff := p.Sub(ca, cb)
	oDiff := Opening{
		M: new(big.Int).Sub(oa.M, ob.M),
		R: new(big.Int).Mod(new(big.Int).Sub(oa.R, ob.R), p.Group.Q),
	}
	if !verify(p, diff, oDiff) {
		t.Fatal("difference opening does not verify")
	}
}

func TestCommitPublic(t *testing.T) {
	p := params()
	b := big.NewInt(40)
	cb := p.CommitPublic(b)
	// CommitPublic(B) must verify with zero randomness.
	if !verify(p, cb, Opening{M: b, R: big.NewInt(0)}) {
		t.Fatal("public commitment does not open with r=0")
	}
	// Folding: Commit(B) / Commit(v) commits to B - v with randomness -r.
	cv, ov, _ := p.CommitInt(15, nil)
	cDiff := p.Sub(cb, cv)
	oDiff := Opening{
		M: big.NewInt(25),
		R: new(big.Int).Mod(new(big.Int).Neg(ov.R), p.Group.Q),
	}
	if !verify(p, cDiff, oDiff) {
		t.Fatal("public-bound folding failed")
	}
}

func TestNegativeMessages(t *testing.T) {
	p := params()
	c, o, _ := p.CommitInt(-5, nil)
	if !verify(p, c, o) {
		t.Fatal("negative message opening rejected")
	}
	// -5 and q-5 are the same exponent: openings are modular.
	alt := Opening{M: new(big.Int).Sub(p.Group.Q, big.NewInt(5)), R: o.R}
	if !verify(p, c, alt) {
		t.Fatal("modular equivalence of messages broken")
	}
}

func TestParamsDeterministic(t *testing.T) {
	a := NewParams(group.TestGroup())
	b := NewParams(group.TestGroup())
	if a.H.Cmp(b.H) != 0 {
		t.Fatal("H derivation not deterministic")
	}
	if a.H.Cmp(a.G) == 0 {
		t.Fatal("H == G")
	}
}

// Property: commit/verify round trip plus additive homomorphism for random
// values.
func TestQuickHomomorphism(t *testing.T) {
	p := params()
	f := func(a, b int32) bool {
		ca, oa, err := p.CommitInt(int64(a), nil)
		if err != nil {
			return false
		}
		cb, ob, err := p.CommitInt(int64(b), nil)
		if err != nil {
			return false
		}
		return verify(p, ca, oa) &&
			verify(p, p.Add(ca, cb), p.AddOpenings(oa, ob))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCommit(b *testing.B) {
	p := params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.CommitInt(int64(i), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	p := params()
	c, o, _ := p.CommitInt(12345, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !verify(p, c, o) {
			b.Fatal("verify failed")
		}
	}
}
