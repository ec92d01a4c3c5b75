package group

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

// naiveMultiExp is the reference: independent Exp calls multiplied
// together.
func naiveMultiExp(g *Group, bases, exps []*big.Int) *big.Int {
	out := big.NewInt(1)
	for i := range bases {
		out = g.Mul(out, g.Exp(bases[i], exps[i]))
	}
	return out
}

// TestFixedBaseExpEdgeCases pins the exponent edge cases the batch
// verifiers rely on: zero, Q-1, exactly Q, above Q (must reduce, not
// index past the window tables) and negative (interpreted mod Q).
func TestFixedBaseExpEdgeCases(t *testing.T) {
	g := TestGroup()
	fb := g.NewFixedBase(g.G)
	cases := []struct {
		name string
		e    *big.Int
	}{
		{"zero", big.NewInt(0)},
		{"one", big.NewInt(1)},
		{"fifteen", big.NewInt(15)},
		{"sixteen", big.NewInt(16)},
		{"qMinus1", new(big.Int).Sub(g.Q, big.NewInt(1))},
		{"exactlyQ", new(big.Int).Set(g.Q)},
		{"qPlus1", new(big.Int).Add(g.Q, big.NewInt(1))},
		{"twoQ", new(big.Int).Lsh(g.Q, 1)},
		{"wayAboveQ", new(big.Int).Lsh(g.Q, 7)},
		{"negOne", big.NewInt(-1)},
		{"negQ", new(big.Int).Neg(g.Q)},
		{"negLarge", new(big.Int).Neg(new(big.Int).Lsh(g.Q, 3))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := fb.Exp(tc.e)
			want := g.ExpG(tc.e)
			if got.Cmp(want) != 0 {
				t.Errorf("FixedBase.Exp(%v) = %v, want %v", tc.e, got, want)
			}
		})
	}
}

func TestMultiExpErrors(t *testing.T) {
	g := TestGroup()
	if _, err := g.MultiExp([]*big.Int{g.G}, nil); err == nil {
		t.Error("length mismatch not rejected")
	}
	if _, err := g.MultiExp([]*big.Int{nil}, []*big.Int{big.NewInt(1)}); err == nil {
		t.Error("nil base not rejected")
	}
	if _, err := g.MultiExp([]*big.Int{g.G}, []*big.Int{nil}); err == nil {
		t.Error("nil exponent not rejected")
	}
	// Empty product is the identity.
	out, err := g.MultiExp(nil, nil)
	if err != nil || out.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("empty MultiExp = %v, %v; want 1, nil", out, err)
	}
}

// TestMultiExpMatchesNaive compares MultiExp with independent Exp
// products. "reduce" fuzzes the small group with random term counts and
// exponents drawn from a range deliberately wider than [0, Q), so
// reduction is exercised. "shapes" runs MODP2048 at 1, 2, 3 and 300
// terms with the exponent widths the verifiers fold (128-bit
// coefficients, 257-bit coefficient·challenge sums) next to 1-bit and
// full-width ones — windows that start, end and straddle every limb
// boundary — with zero and negative exponents, repeated bases, and
// bases that are arbitrary residues rather than subgroup members.
func TestMultiExpMatchesNaive(t *testing.T) {
	t.Run("reduce", func(t *testing.T) {
		g := TestGroup()
		wide := new(big.Int).Lsh(g.Q, 2) // exponents in [-4Q, 4Q)
		f := func(seed int64, n uint8) bool {
			k := int(n%9) + 1
			bases := make([]*big.Int, k)
			exps := make([]*big.Int, k)
			for i := 0; i < k; i++ {
				b, err := g.RandElement(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				e, err := rand.Int(rand.Reader, wide)
				if err != nil {
					t.Fatal(err)
				}
				if seed&(1<<uint(i)) != 0 {
					e.Neg(e)
				}
				if i == 0 && n%3 == 0 {
					e.SetInt64(0) // force a zero-exponent term regularly
				}
				bases[i], exps[i] = b, e
			}
			got, err := g.MultiExp(bases, exps)
			if err != nil {
				t.Fatal(err)
			}
			return got.Cmp(naiveMultiExp(g, bases, exps)) == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Error(err)
		}
	})
	t.Run("shapes", func(t *testing.T) {
		g := MODP2048()
		widths := []uint{1, 128, 257, 2047}
		for _, n := range []int{1, 2, 3, 300} {
			bases := make([]*big.Int, n)
			exps := make([]*big.Int, n)
			for i := range bases {
				b, err := rand.Int(rand.Reader, g.P)
				if err != nil {
					t.Fatal(err)
				}
				w := widths[i%len(widths)]
				e, err := rand.Int(rand.Reader, new(big.Int).Lsh(one, w))
				if err != nil {
					t.Fatal(err)
				}
				e.SetBit(e, int(w)-1, 1) // exactly w bits
				switch i % 11 {
				case 5:
					e.SetInt64(0)
				case 7:
					e.Neg(e)
				case 9:
					b = bases[i-1] // same base twice in a row
				}
				bases[i], exps[i] = b, e
			}
			got, err := g.MultiExp(bases, exps)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(naiveMultiExp(g, bases, exps)) != 0 {
				t.Errorf("%d terms: MultiExp disagrees with the product of Exps", n)
			}
		}
	})
}

// TestMultiExpSingleTermMatchesExp: a 1-term multi-exp is exactly Exp.
func TestMultiExpSingleTermMatchesExp(t *testing.T) {
	g := TestGroup()
	e := new(big.Int).Sub(g.Q, big.NewInt(3))
	got, err := g.MultiExp([]*big.Int{g.G}, []*big.Int{e})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(g.ExpG(e)) != 0 {
		t.Errorf("MultiExp single term = %v, want %v", got, g.ExpG(e))
	}
}

func BenchmarkMultiExp64(b *testing.B) {
	g := MODP2048()
	bases := make([]*big.Int, 64)
	exps := make([]*big.Int, 64)
	for i := range bases {
		var err error
		bases[i], err = g.RandElement(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		exps[i], err = g.RandScalar(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.MultiExp(bases, exps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiExpBitFold288 is the fold engine_zk actually runs: one
// group of 8 bound proofs at bound 40 is 8·2·6 = 96 bit proofs, each
// contributing A0^ρ, A1^σ (128-bit coefficients) and C^(ρ·c0+σ·c1)
// (257 bits) — 288 terms.
func BenchmarkMultiExpBitFold288(b *testing.B) {
	g := MODP2048()
	bases := make([]*big.Int, 288)
	exps := make([]*big.Int, 288)
	for i := range bases {
		x, err := rand.Int(rand.Reader, g.P)
		if err != nil {
			b.Fatal(err)
		}
		bases[i] = g.Mul(x, x)
		width := uint(128)
		if i%3 == 2 {
			width = 257
		}
		if exps[i], err = rand.Int(rand.Reader, new(big.Int).Lsh(one, width)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.MultiExp(bases, exps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveMultiExp64(b *testing.B) {
	g := MODP2048()
	bases := make([]*big.Int, 64)
	exps := make([]*big.Int, 64)
	for i := range bases {
		var err error
		bases[i], err = g.RandElement(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		exps[i], err = g.RandScalar(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveMultiExp(g, bases, exps)
	}
}
