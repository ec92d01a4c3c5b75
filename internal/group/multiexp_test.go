package group

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"

	"prever/internal/costtest"
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
// index past the comb tables) and negative (interpreted mod Q).
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
// bases that are arbitrary residues rather than group members.
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

// fold is one MultiExp input.
type fold struct{ bases, exps []*big.Int }

// degenerateFolds returns the inputs a vector-addition chain can get
// wrong where interleaved windows could not: the chain's steps depend
// on how the exponents compare, and it multiplies bases in place.
func degenerateFolds(tb testing.TB, g *Group) map[string]fold {
	wide := g.Q.BitLen() - 1 // the widest exponent sure to be below Q
	neg := func(x *big.Int) *big.Int { return new(big.Int).Neg(x) }
	pow2 := func(k int) *big.Int { return new(big.Int).Lsh(one, uint(k)) }
	folds := make(map[string]fold)

	e := randBits(tb, 128)
	equal := make([]*big.Int, 12)
	for i := range equal {
		equal[i] = new(big.Int).Set(e)
	}
	folds["allEqual"] = fold{randResidues(tb, g, 12), equal}

	dominated := []*big.Int{randBits(tb, 8), randBits(tb, 8), randBits(tb, wide)}
	for i := 0; i < 9; i++ {
		dominated = append(dominated, randBits(tb, 8))
	}
	folds["oneDominates"] = fold{randResidues(tb, g, 12), dominated}

	// Each exponent at least 4x the next: every step divides.
	var falling []*big.Int
	for w := wide; w > 0 && len(falling) < 40; w -= 3 {
		falling = append(falling, randBits(tb, w))
	}
	folds["superIncreasing"] = fold{randResidues(tb, g, len(falling)), falling}

	powers := []*big.Int{pow2(0), pow2(1), pow2(5), pow2(5), pow2(64), pow2(63), pow2(wide - 1), pow2(wide - 2), pow2(4)}
	folds["powersOfTwo"] = fold{randResidues(tb, g, len(powers)), powers}

	q5 := new(big.Int).Add(g.Q, big.NewInt(5))
	mixed := []*big.Int{
		new(big.Int).Set(g.Q), q5, new(big.Int).Lsh(g.Q, 1), big.NewInt(-1), neg(g.Q),
		big.NewInt(0), neg(q5), big.NewInt(3), big.NewInt(0), new(big.Int).Lsh(q5, 9),
	}
	folds["reducedMix"] = fold{randResidues(tb, g, len(mixed)), mixed}

	survivor := []*big.Int{big.NewInt(0), new(big.Int).Set(g.Q), randBits(tb, 100), neg(new(big.Int).Lsh(g.Q, 1))}
	folds["oneSurvivor"] = fold{randResidues(tb, g, len(survivor)), survivor}

	// The same Int at several positions: a chain that multiplied into
	// its caller's base, or subtracted from its caller's exponent, would
	// change a term it has yet to read.
	b := randResidues(tb, g, 2)
	folds["aliasedBases"] = fold{
		[]*big.Int{b[0], b[0], b[1], b[0], b[1]},
		[]*big.Int{randBits(tb, 128), randBits(tb, 128), randBits(tb, 120), randBits(tb, 64), randBits(tb, 128)},
	}
	folds["aliasedExps"] = fold{randResidues(tb, g, 5), []*big.Int{e, randBits(tb, 128), e, e, equal[0]}}
	folds["aliasedBoth"] = fold{[]*big.Int{b[0], b[0], b[0]}, []*big.Int{e, e, e}}

	nonMember := new(big.Int).Sub(g.P, two) // the other encoding of 2
	edge := []*big.Int{
		big.NewInt(1), new(big.Int).Sub(g.P, one), nonMember, big.NewInt(-1),
		new(big.Int).Add(g.P, one), neg(nonMember), new(big.Int).Lsh(g.P, 3),
	}
	edgeExps := make([]*big.Int, len(edge))
	for i := range edgeExps {
		edgeExps[i] = randBits(tb, 128-i)
	}
	edgeExps[len(edge)-1].SetInt64(0) // 8P = 0 mod P, to the power 0
	folds["edgeBases"] = fold{edge, edgeExps}
	// A zero base with a live exponent makes the whole product zero.
	folds["zeroBase"] = fold{append([]*big.Int{big.NewInt(0)}, edge...), append([]*big.Int{randBits(tb, 90)}, edgeExps...)}
	return folds
}

// TestMultiExpDegenerateFolds runs every degenerate shape against the
// product of Exps, on the small group and at MODP2048 (where the
// dominating exponent is 2046 bits beside 8-bit ones).
func TestMultiExpDegenerateFolds(t *testing.T) {
	for _, g := range []*Group{TestGroup(), MODP2048()} {
		for name, f := range degenerateFolds(t, g) {
			got, err := g.MultiExp(f.bases, f.exps)
			if err != nil {
				t.Fatalf("%d bits, %s: %v", g.P.BitLen(), name, err)
			}
			if want := naiveMultiExp(g, f.bases, f.exps); got.Cmp(want) != 0 {
				t.Errorf("%d bits, %s: MultiExp = %v, want %v", g.P.BitLen(), name, got, want)
			}
		}
	}
}

// TestMultiExpLeavesInputsAlone: the chain subtracts exponents and
// multiplies bases in place, on its own copies — every base and
// exponent the caller passed is the same Int with the same value after
// the call.
func TestMultiExpLeavesInputsAlone(t *testing.T) {
	inputs := func(f fold) []*big.Int { return append(append([]*big.Int{}, f.bases...), f.exps...) }
	check := func(g *Group, name string, f fold) {
		before := inputs(f)
		values := make([]*big.Int, len(before))
		for i, x := range before {
			values[i] = new(big.Int).Set(x)
		}
		if _, err := g.MultiExp(f.bases, f.exps); err != nil {
			t.Fatal(err)
		}
		for i, x := range inputs(f) {
			if x != before[i] || x.Cmp(values[i]) != 0 {
				t.Errorf("%s: input %d changed from %v to %v", name, i, values[i], x)
			}
		}
	}
	for name, f := range degenerateFolds(t, TestGroup()) {
		check(TestGroup(), name, f)
	}
	bases, exps := bitFoldTerms(t, 12)
	check(MODP2048(), "bitFold", fold{bases, exps})
}

// decodeFold reads fuzz bytes as 1–24 terms: a count byte, then per
// term a flag byte and a length-prefixed base and exponent of any width
// up to 255 bytes. Flag bits: 1 negates the base, 2 negates the
// exponent, 4 makes the base the previous term's Int, 8 the exponent.
// Input that runs out reads as zeros.
func decodeFold(data []byte) fold {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	number := func(negative bool) *big.Int {
		n := min(int(next()), len(data))
		x := new(big.Int).SetBytes(data[:n])
		data = data[n:]
		if negative {
			x.Neg(x)
		}
		return x
	}
	var f fold
	for i, n := 0, 1+int(next())%24; i < n; i++ {
		flags := next()
		b, e := number(flags&1 != 0), number(flags&2 != 0)
		if i > 0 && flags&4 != 0 {
			b = f.bases[i-1]
		}
		if i > 0 && flags&8 != 0 {
			e = f.exps[i-1]
		}
		f.bases, f.exps = append(f.bases, b), append(f.exps, e)
	}
	return f
}

// FuzzMultiExp: arbitrary bytes as 1–24 terms on the 257-bit test
// group, bases and exponents of any width and sign, terms aliased to
// their predecessors; MultiExp never panics and always equals the
// product of Exps. testdata/fuzz/FuzzMultiExp holds the degenerate
// shapes of TestMultiExpDegenerateFolds as seeds.
func FuzzMultiExp(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := TestGroup()
		in := decodeFold(data)
		got, err := g.MultiExp(in.bases, in.exps)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveMultiExp(g, in.bases, in.exps); got.Cmp(want) != 0 {
			t.Fatalf("MultiExp(%v, %v) = %v, want %v", in.bases, in.exps, got, want)
		}
	})
}

// TestMultiExpCost is the gate on what a fold costs, independent of the
// host's speed. In multiplications: the 288-term bit fold costs at most
// 11 000 mulMods (≈ 8 500 measured — 7 800 multiplications plus the
// heap; interleaved windows cost ≈ 15 800). Against the per-term Exp
// product, on the shapes that make every step a division — widths
// falling by 7 bits a term from 2040, and one 2040-bit exponent beside
// 287 8-bit ones — it costs at most 0.6x (≈ 0.2x and ≈ 0.4x measured):
// a step never costs more than square-and-multiply over the bits it
// removes, so no input makes a fold dearer than verifying term by term.
//
// Each ratio is the median over back-to-back pairs (costtest.Ratio), as
// in TestMulModCost: the fold against 101 batches of 8 192 mulMods, a
// batch about as long as one fold. The dominated shape is cheap and
// takes 101 pairs too; the falling widths cost ~0.4 s a pair and sit
// far below the bound, so 5 do.
func TestMultiExpCost(t *testing.T) {
	costtest.Skip(t)
	g := MODP2048()
	multiExp := func(bases, exps []*big.Int) func() {
		return func() {
			if _, err := g.MultiExp(bases, exps); err != nil {
				t.Fatal(err)
			}
		}
	}

	const mulMods, limit = 8192, 11000
	bases, exps := bitFoldTerms(t, 288)
	as, bs := modp2048Operands(t, 256)
	var s reduceScratch
	var dst big.Int
	r := costtest.Ratio(101, multiExp(bases, exps), func() {
		for k := 0; k < mulMods; k++ {
			g.red.mulMod(&dst, as[k%256], bs[k%256], &s)
		}
	})
	mults := mulMods * r.Median
	t.Logf("288-term bit fold: %.0f mulMods (%v %d mulMods)", mults, r, mulMods)
	if mults > limit {
		t.Errorf("the 288-term bit fold costs %.0f mulMods (limit 11 000): the chain is doing more multiplications than one per step, or its bookkeeping has grown", mults)
	}

	falling, dominated := make([]*big.Int, 288), make([]*big.Int, 288)
	for i := range falling {
		falling[i] = randBits(t, 2040-7*i)
		dominated[i] = randBits(t, 8)
	}
	dominated[100] = randBits(t, 2040)
	for _, shape := range []struct {
		name  string
		exps  []*big.Int
		pairs int
	}{{"widths falling by 7 bits", falling, 5}, {"one 2040-bit exponent", dominated, 101}} {
		name, exps := shape.name, shape.exps
		r := costtest.Ratio(shape.pairs, multiExp(bases, exps), func() { naiveMultiExp(g, bases, exps) })
		t.Logf("%s: %v the per-term Exp product", name, r)
		if r.Median > 0.6 {
			t.Errorf("%s: MultiExp costs %.2fx the per-term Exp product (limit 0.6x): a division step is costing more than square-and-multiply over the bits it removes", name, r.Median)
		}
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

// randBits returns a random integer of exactly w bits.
func randBits(tb testing.TB, w int) *big.Int {
	e, err := rand.Int(rand.Reader, new(big.Int).Lsh(one, uint(w)))
	if err != nil {
		tb.Fatal(err)
	}
	return e.SetBit(e, w-1, 1)
}

// randResidues returns n random residues mod P (members or not).
func randResidues(tb testing.TB, g *Group, n int) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		var err error
		if out[i], err = rand.Int(rand.Reader, g.P); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// bitFoldTerms is the fold of bit proofs, n terms of it: each bit proof
// contributes A0^ρ, A1^σ (128-bit coefficients) and C^(ρ·c0+σ·c1) (257
// bits). While a bound-40 proof was 6 bit proofs, one engine_zk group of
// 8 was 48 bit proofs, 144 terms; 288 terms, the shape TestMultiExpCost
// gates, is two such groups' worth. A bound-0 side is one bit proof, 3
// terms, and 6 is the last fold above it.
func bitFoldTerms(tb testing.TB, n int) (bases, exps []*big.Int) {
	g := MODP2048()
	bases = randResidues(tb, g, n)
	exps = make([]*big.Int, n)
	for i := range bases {
		bases[i] = g.Mul(bases[i], bases[i])
		width := uint(128)
		if i%3 == 2 {
			width = 257
		}
		var err error
		if exps[i], err = rand.Int(rand.Reader, new(big.Int).Lsh(one, width)); err != nil {
			tb.Fatal(err)
		}
	}
	return bases, exps
}

// digitFoldTerms is the fold of base-4 digit proofs, n terms of it: each
// four-value digit contributes A_i^ρ_i for its four branches (128-bit
// coefficients) and one term for its commitment, D^(Σρ_i·c_i) (258
// bits). One group of 8 bound proofs at bound 40 is 8·3 = 24 digits,
// 120 terms.
func digitFoldTerms(tb testing.TB, n int) (bases, exps []*big.Int) {
	g := MODP2048()
	bases = randResidues(tb, g, n)
	exps = make([]*big.Int, n)
	for i := range bases {
		bases[i] = g.Mul(bases[i], bases[i])
		width := uint(128)
		if i%5 == 4 {
			width = 258
		}
		var err error
		if exps[i], err = rand.Int(rand.Reader, new(big.Int).Lsh(one, width)); err != nil {
			tb.Fatal(err)
		}
	}
	return bases, exps
}

func benchmarkMultiExpFold(b *testing.B, bases, exps []*big.Int) {
	g := MODP2048()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.MultiExp(bases, exps); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkMultiExpBitFold(b *testing.B, n int) {
	bases, exps := bitFoldTerms(b, n)
	benchmarkMultiExpFold(b, bases, exps)
}

func BenchmarkMultiExpBitFold288(b *testing.B) { benchmarkMultiExpBitFold(b, 288) }

// BenchmarkMultiExpBitFold144 is one engine_zk group as it folded while
// a bound-40 proof was 6 bit proofs.
func BenchmarkMultiExpBitFold144(b *testing.B) { benchmarkMultiExpBitFold(b, 144) }

// BenchmarkMultiExpDigitFold120 is one engine_zk group: 8 bound-40
// proofs of three four-value digits each.
func BenchmarkMultiExpDigitFold120(b *testing.B) {
	bases, exps := digitFoldTerms(b, 120)
	benchmarkMultiExpFold(b, bases, exps)
}

// BenchmarkMultiExpBitFold6 is the bisection floor of bit proofs, where
// a chain has the least to amortise.
func BenchmarkMultiExpBitFold6(b *testing.B) { benchmarkMultiExpBitFold(b, 6) }

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
