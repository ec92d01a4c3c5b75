package group

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestGenerateSmallGroup(t *testing.T) {
	g, err := Generate(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	// p = 2q+1, both prime.
	expect := new(big.Int).Mul(g.Q, big.NewInt(2))
	expect.Add(expect, big.NewInt(1))
	if expect.Cmp(g.P) != 0 {
		t.Fatal("p != 2q+1")
	}
	if !g.Contains(g.G) {
		t.Fatal("generator not in the group")
	}
}

func TestGenerateRejectsTinyBits(t *testing.T) {
	if _, err := Generate(8, nil); err == nil {
		t.Fatal("tiny group accepted")
	}
}

func TestNewValidation(t *testing.T) {
	g := TestGroup()
	if _, err := New(g.P, g.Q, g.G); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	if _, err := New(nil, g.Q, g.G); err == nil {
		t.Fatal("nil p accepted")
	}
	badQ := new(big.Int).Add(g.Q, big.NewInt(1))
	if _, err := New(g.P, badQ, g.G); err == nil {
		t.Fatal("p != 2q+1 accepted")
	}
	if _, err := New(g.P, g.Q, big.NewInt(1)); err == nil {
		t.Fatal("g=1 accepted")
	}
	// -1 mod p: the other encoding of 1.
	if _, err := New(g.P, g.Q, new(big.Int).Sub(g.P, one)); err == nil {
		t.Fatal("P-1 accepted as a generator")
	}
	// The other encoding of a valid generator is refused, not mapped.
	if _, err := New(g.P, g.Q, new(big.Int).Sub(g.P, g.G)); err == nil {
		t.Fatal("P-G accepted as a generator")
	}
	if _, err := New(g.P, g.Q, g.Q); err != nil {
		t.Fatalf("g = Q, the largest element, rejected: %v", err)
	}
}

func TestMODP2048Parameters(t *testing.T) {
	g := MODP2048()
	if g.Bits() != 2048 {
		t.Fatalf("bits = %d", g.Bits())
	}
	if !g.P.ProbablyPrime(10) || !g.Q.ProbablyPrime(10) {
		t.Fatal("MODP2048 p or q not prime")
	}
	if !g.Contains(g.G) {
		t.Fatal("MODP2048 generator not in the group")
	}
	if MODP2048() != g {
		t.Fatal("MODP2048 should be cached")
	}
}

func TestExpLaws(t *testing.T) {
	g := TestGroup()
	a, _ := g.RandScalar(nil)
	b, _ := g.RandScalar(nil)
	// g^a * g^b == g^(a+b)
	lhs := g.Mul(g.ExpG(a), g.ExpG(b))
	sum := new(big.Int).Add(a, b)
	if lhs.Cmp(g.ExpG(sum)) != 0 {
		t.Fatal("exponent addition law failed")
	}
	// (g^a)^b == g^(ab)
	lhs = g.Exp(g.ExpG(a), b)
	prod := new(big.Int).Mul(a, b)
	if lhs.Cmp(g.ExpG(prod)) != 0 {
		t.Fatal("exponent multiplication law failed")
	}
}

func TestNegativeExponent(t *testing.T) {
	g := TestGroup()
	a, _ := g.RandScalar(nil)
	neg := new(big.Int).Neg(a)
	// g^a * g^-a == 1
	if g.Mul(g.ExpG(a), g.ExpG(neg)).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("negative exponent not handled")
	}
}

func TestDivAndInv(t *testing.T) {
	g := TestGroup()
	x, _ := g.RandElement(nil)
	y, _ := g.RandElement(nil)
	// (x*y)/y == x
	if g.Div(g.Mul(x, y), y).Cmp(x) != 0 {
		t.Fatal("div law failed")
	}
	if g.Mul(x, g.Inv(x)).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("inverse law failed")
	}
}

func TestRandElementInSubgroup(t *testing.T) {
	g := TestGroup()
	for i := 0; i < 10; i++ {
		e, err := g.RandElement(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Contains(e) {
			t.Fatalf("random element %v outside the group", e)
		}
	}
}

func TestContainsRejectsOutOfRange(t *testing.T) {
	g := TestGroup()
	for _, x := range []*big.Int{
		big.NewInt(0), big.NewInt(-3), new(big.Int).Neg(g.Q),
		new(big.Int).Add(g.Q, one), new(big.Int).Sub(g.P, one), g.P,
		new(big.Int).Sub(g.P, g.G), // the other encoding of G
	} {
		if g.Contains(x) {
			t.Errorf("Contains(%v) = true (Q = %v)", x, g.Q)
		}
	}
	for _, x := range []*big.Int{one, two, g.Q, g.G} {
		if !g.Contains(x) {
			t.Errorf("Contains(%v) = false (Q = %v)", x, g.Q)
		}
	}
}

// residue is the oracle for every operation of the group: x mod P by
// math/big, mapped to its representative min(x, P − x).
func residue(g *Group, x *big.Int) *big.Int {
	r := new(big.Int).Mod(x, g.P)
	if neg := new(big.Int).Sub(g.P, r); neg.Cmp(r) < 0 {
		return neg
	}
	return r
}

// TestOperationsIgnoreEncoding: x and P − x are one element, so every
// operation answers the same for either, and its answer is the encoding
// Contains accepts.
func TestOperationsIgnoreEncoding(t *testing.T) {
	for _, g := range []*Group{TestGroup(), MODP2048()} {
		a, _ := g.RandElement(nil)
		b, _ := g.RandElement(nil)
		e, _ := g.RandScalar(nil)
		na, nb := new(big.Int).Sub(g.P, a), new(big.Int).Sub(g.P, b)
		multi := func(x, y *big.Int) *big.Int {
			out, err := g.MultiExp([]*big.Int{x, y}, []*big.Int{e, big.NewInt(3)})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		for name, pair := range map[string][2]*big.Int{
			"Mul":          {g.Mul(a, b), g.Mul(na, nb)},
			"Div":          {g.Div(a, b), g.Div(na, b)},
			"Inv":          {g.Inv(a), g.Inv(na)},
			"Exp":          {g.Exp(a, e), g.Exp(na, e)},
			"MultiExp":     {multi(a, b), multi(na, nb)},
			"FixedBaseExp": {g.NewFixedBase(a).Exp(e), g.NewFixedBase(na).Exp(e)},
		} {
			if pair[0].Cmp(pair[1]) != 0 {
				t.Errorf("%d bits, %s: %v for x, %v for P - x", g.Bits(), name, pair[0], pair[1])
			}
			if !g.Contains(pair[0]) {
				t.Errorf("%d bits, %s: result %v is not an encoding Contains accepts", g.Bits(), name, pair[0])
			}
		}
	}
}

func TestDeriveElementProperties(t *testing.T) {
	g := TestGroup()
	h1 := g.DeriveElement("pedersen-h")
	h2 := g.DeriveElement("pedersen-h")
	h3 := g.DeriveElement("other-label")
	if h1.Cmp(h2) != 0 {
		t.Fatal("derivation not deterministic")
	}
	if h1.Cmp(h3) == 0 {
		t.Fatal("different labels collided")
	}
	if !g.Contains(h1) || !g.Contains(h3) {
		t.Fatal("derived element outside the group")
	}
}

func TestHashToScalarProperties(t *testing.T) {
	g := TestGroup()
	c1 := g.HashToScalar("d", []byte("a"), []byte("b"))
	c2 := g.HashToScalar("d", []byte("a"), []byte("b"))
	if c1.Cmp(c2) != 0 {
		t.Fatal("challenge not deterministic")
	}
	// Domain and message framing must matter.
	if c1.Cmp(g.HashToScalar("d2", []byte("a"), []byte("b"))) == 0 {
		t.Fatal("domain ignored")
	}
	if c1.Cmp(g.HashToScalar("d", []byte("ab"))) == 0 {
		t.Fatal("length framing broken: [a,b] == [ab]")
	}
	if c1.Sign() < 0 || c1.Cmp(g.Q) >= 0 {
		t.Fatal("challenge out of range")
	}
}

// Property: every product / exponentiation result stays in the group.
func TestQuickClosure(t *testing.T) {
	g := TestGroup()
	f := func(seedA, seedB int64) bool {
		a := g.ExpG(big.NewInt(seedA))
		b := g.ExpG(big.NewInt(seedB))
		return g.Contains(g.Mul(a, b)) && g.Contains(g.Exp(a, big.NewInt(seedB)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExpTestGroup(b *testing.B) {
	g := TestGroup()
	x, _ := g.RandScalar(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ExpG(x)
	}
}

func BenchmarkExpMODP2048(b *testing.B) {
	g := MODP2048()
	x, _ := g.RandScalar(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ExpG(x)
	}
}

func TestFixedBaseMatchesExp(t *testing.T) {
	g := TestGroup()
	fb := g.NewFixedBase(g.G)
	for i := 0; i < 20; i++ {
		e, _ := g.RandScalar(nil)
		want := g.ExpG(e)
		got := fb.Exp(e)
		if got.Cmp(want) != 0 {
			t.Fatalf("fixed-base exp diverges for exponent %v", e)
		}
	}
}

func TestFixedBaseEdgeExponents(t *testing.T) {
	g := TestGroup()
	fb := g.NewFixedBase(g.G)
	cases := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(15),
		big.NewInt(16),
		new(big.Int).Sub(g.Q, big.NewInt(1)), // q-1
		new(big.Int).Neg(big.NewInt(5)),      // negative → mod q
		new(big.Int).Add(g.Q, big.NewInt(7)), // > q → mod q
	}
	for _, e := range cases {
		if fb.Exp(e).Cmp(g.ExpG(e)) != 0 {
			t.Fatalf("fixed-base exp diverges for exponent %v", e)
		}
	}
}

func TestQuickFixedBase(t *testing.T) {
	g := TestGroup()
	h := g.DeriveElement("fixedbase-test")
	fb := g.NewFixedBase(h)
	f := func(raw int64) bool {
		e := big.NewInt(raw)
		return fb.Exp(e).Cmp(g.Exp(h, e)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// containsSeeds are FuzzContains's starting values on one group: 0, Q
// and P with their neighbours, the generator and its other encoding, and
// 2^k − 1, 2^k, 2^k + 1 every 16 bits up to twice the modulus width —
// every word and half-word edge.
func containsSeeds(g *Group) []*big.Int {
	var vs []*big.Int
	for _, edge := range []*big.Int{big.NewInt(0), g.Q, g.P} {
		for d := int64(-2); d <= 2; d++ {
			vs = append(vs, new(big.Int).Add(edge, big.NewInt(d)))
		}
	}
	vs = append(vs, g.G, new(big.Int).Sub(g.P, g.G))
	for k := 0; k <= 2*g.Bits(); k += 16 {
		pow := new(big.Int).Lsh(one, uint(k))
		vs = append(vs, new(big.Int).Sub(pow, one), pow, new(big.Int).Add(pow, one))
	}
	return vs
}

// FuzzContains is the fuzz of the membership check at the trust
// boundary (ROADMAP 5d): on both shipped groups Contains accepts exactly
// [1, Q]; of x and P − x in (0, P) it accepts exactly one; and an
// accepted x is the encoding every operation gives its element.
func FuzzContains(f *testing.F) {
	groups := []*Group{MODP2048(), TestGroup()}
	for _, g := range groups {
		for _, x := range containsSeeds(g) {
			f.Add(x.Sign() < 0, x.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, negative bool, xb []byte) {
		x := new(big.Int).SetBytes(xb)
		if negative {
			x.Neg(x)
		}
		for _, g := range groups {
			want := x.Sign() > 0 && x.Cmp(g.Q) <= 0
			if got := g.Contains(x); got != want {
				t.Fatalf("%d bits: Contains(%v) = %v, want %v", g.Bits(), x, got, want)
			}
			if x.Sign() > 0 && x.Cmp(g.P) < 0 && g.Contains(new(big.Int).Sub(g.P, x)) == want {
				t.Fatalf("%d bits: Contains gives %v for both %v and P - %v", g.Bits(), want, x, x)
			}
			if want && g.Mul(x, one).Cmp(x) != 0 {
				t.Fatalf("%d bits: Mul(%v, 1) = %v: an accepted encoding is not the one operations give", g.Bits(), x, g.Mul(x, one))
			}
		}
	})
}

// encodeFold is decodeFold's inverse for terms whose bases and
// exponents fit 255 bytes, with no aliasing.
func encodeFold(f fold) []byte {
	out := []byte{byte(len(f.bases) - 1)}
	for i := range f.bases {
		var flags byte
		if f.bases[i].Sign() < 0 {
			flags |= 1
		}
		if f.exps[i].Sign() < 0 {
			flags |= 2
		}
		out = append(out, flags)
		for _, x := range []*big.Int{f.bases[i], f.exps[i]} {
			out = append(out, byte(len(x.Bytes())))
			out = append(out, x.Bytes()...)
		}
	}
	return out
}

// FuzzSignedMatchesResidue: arbitrary bytes as 1–8 terms (decodeFold's
// encoding) on the test group. Mul and Inv of the first and last bases,
// Exp and FixedBase.Exp of the first term and MultiExp of all of them
// each equal |·| of the same computation on residues by math/big, with
// the exponents as given (not reduced mod Q), and each result passes
// Contains. A base ≡ 0 (mod P) is no element; it is replaced by 1.
func FuzzSignedMatchesResidue(f *testing.F) {
	g := TestGroup()
	neg := func(x *big.Int) *big.Int { return new(big.Int).Neg(x) }
	bases := []*big.Int{
		one, two, g.Q, new(big.Int).Add(g.Q, one), new(big.Int).Sub(g.P, one),
		new(big.Int).Sub(g.P, two), g.P, new(big.Int).Add(g.P, one), neg(one), g.G, new(big.Int).Sub(g.P, g.G),
	}
	exps := []*big.Int{
		big.NewInt(0), one, neg(one), g.Q, new(big.Int).Sub(g.Q, one), new(big.Int).Add(g.Q, one),
		new(big.Int).Lsh(g.Q, 1), neg(g.Q), new(big.Int).Lsh(one, 128), neg(new(big.Int).Lsh(one, 255)),
	}
	for i, b := range bases {
		e := exps[i%len(exps)]
		f.Add(encodeFold(fold{[]*big.Int{b}, []*big.Int{e}}))
		f.Add(encodeFold(fold{[]*big.Int{b, new(big.Int).Sub(g.P, b)}, []*big.Int{e, exps[(i+1)%len(exps)]}}))
	}
	f.Add(encodeFold(fold{bases[:8], exps[:8]}))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeFold(data)
		n := min(len(in.bases), 8)
		bs, es := in.bases[:n], in.exps[:n]
		for i, b := range bs {
			if new(big.Int).Mod(b, g.P).Sign() == 0 {
				bs[i] = one
			}
		}
		power := func(b, e *big.Int) *big.Int { return new(big.Int).Exp(new(big.Int).Mod(b, g.P), e, g.P) }
		product := big.NewInt(1)
		for i := range bs {
			product.Mod(product.Mul(product, power(bs[i], es[i])), g.P)
		}
		multi, err := g.MultiExp(bs, es)
		if err != nil {
			t.Fatal(err)
		}
		first, last := bs[0], bs[n-1]
		for _, c := range []struct {
			name      string
			got, want *big.Int
		}{
			{"Mul", g.Mul(first, last), residue(g, new(big.Int).Mul(first, last))},
			{"Inv", g.Inv(first), residue(g, new(big.Int).ModInverse(new(big.Int).Mod(first, g.P), g.P))},
			{"Exp", g.Exp(first, es[0]), residue(g, power(first, es[0]))},
			{"FixedBase.Exp", g.NewFixedBase(first).Exp(es[0]), residue(g, power(first, es[0]))},
			{"MultiExp", multi, residue(g, product)},
		} {
			if c.got.Cmp(c.want) != 0 {
				t.Fatalf("%s on %v, %v = %v, want %v", c.name, bs, es, c.got, c.want)
			}
			if !g.Contains(c.got) {
				t.Fatalf("%s on %v, %v = %v, which Contains refuses", c.name, bs, es, c.got)
			}
		}
	})
}

func BenchmarkContainsMODP2048(b *testing.B) {
	g := MODP2048()
	x, err := g.RandElement(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.Contains(x) {
			b.Fatal("Contains rejects a group element")
		}
	}
}

func BenchmarkFixedBaseExp(b *testing.B) {
	g := TestGroup()
	fb := g.NewFixedBase(g.G)
	e, _ := g.RandScalar(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.Exp(e)
	}
}
