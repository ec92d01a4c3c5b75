package group

import (
	"crypto/rand"
	"math"
	"math/big"
	"math/bits"
	"sync"
	"testing"

	"prever/internal/costtest"
)

// mulModOracle is the multiply-then-Mod route mulMod replaced.
func mulModOracle(a, b, p *big.Int) *big.Int {
	out := new(big.Int).Mul(a, b)
	return out.Mod(out, p)
}

// wholeWordsPrime returns the largest prime below b^k: a modulus of
// exactly k whole words with every bit of the top word set.
func wholeWordsPrime(k int) *big.Int {
	p := new(big.Int).Lsh(one, uint(k*bits.UintSize))
	for p.Sub(p, one); !p.ProbablyPrime(10); p.Sub(p, two) {
	}
	return p
}

// TestMulMod checks the Barrett kernel against Mul + Mod over moduli
// whose bit length is and is not a whole number of words, on the edge
// operands and random ones, under every aliasing of dst, a and b.
func TestMulMod(t *testing.T) {
	small, err := Generate(64, nil) // one word
	if err != nil {
		t.Fatal(err)
	}
	moduli := map[string]*big.Int{
		"oneWord":    small.P,
		"testGroup":  TestGroup().P, // five words, one bit in the top one
		"wholeWords": wholeWordsPrime(3),
		"modp2048":   MODP2048().P,
	}
	for name, p := range moduli {
		t.Run(name, func(t *testing.T) {
			r := newReducer(p)
			pm1 := new(big.Int).Sub(p, one)
			operands := []*big.Int{
				big.NewInt(0), big.NewInt(1), pm1,
				mulModOracle(pm1, pm1, p),                      // (P-1)² mod P = 1, via the oracle
				new(big.Int).Mod(big.NewInt(math.MaxInt64), p), // one word
				new(big.Int).Rsh(p, 1),
			}
			for i := 0; i < 40; i++ {
				x, err := rand.Int(rand.Reader, p)
				if err != nil {
					t.Fatal(err)
				}
				operands = append(operands, x)
			}
			var s reduceScratch
			for _, a := range operands {
				for _, b := range operands {
					want := mulModOracle(a, b, p)
					if got := r.mulMod(new(big.Int), a, b, &s); got.Cmp(want) != 0 {
						t.Fatalf("mulMod(%v, %v) = %v, want %v", a, b, got, want)
					}
					// dst == a
					x, y := new(big.Int).Set(a), new(big.Int).Set(b)
					if r.mulMod(x, x, y, &s); x.Cmp(want) != 0 || y.Cmp(b) != 0 {
						t.Fatalf("dst == a: mulMod(%v, %v) = %v, want %v", a, b, x, want)
					}
					// dst == b
					x, y = new(big.Int).Set(a), new(big.Int).Set(b)
					if r.mulMod(y, x, y, &s); y.Cmp(want) != 0 || x.Cmp(a) != 0 {
						t.Fatalf("dst == b: mulMod(%v, %v) = %v, want %v", a, b, y, want)
					}
				}
				// a == b, with a separate dst and with all three the same.
				sq := mulModOracle(a, a, p)
				x := new(big.Int).Set(a)
				if got := r.mulMod(new(big.Int), x, x, &s); got.Cmp(sq) != 0 || x.Cmp(a) != 0 {
					t.Fatalf("a == b: mulMod(%v, %v) = %v, want %v", a, a, got, sq)
				}
				if r.mulMod(x, x, x, &s); x.Cmp(sq) != 0 {
					t.Fatalf("dst == a == b: mulMod(%v, %v) = %v, want %v", a, a, x, sq)
				}
			}
		})
	}
}

// TestGroupMulNormalisesOperands: Group.Mul answers the representative
// of the Euclidean residue for negative operands and operands at or
// above P.
func TestGroupMulNormalisesOperands(t *testing.T) {
	for _, g := range []*Group{TestGroup(), MODP2048()} {
		x, err := g.RandElement(nil)
		if err != nil {
			t.Fatal(err)
		}
		operands := []*big.Int{
			big.NewInt(0), big.NewInt(-1), big.NewInt(7), x,
			new(big.Int).Neg(x),
			new(big.Int).Set(g.P),
			new(big.Int).Add(g.P, x),
			new(big.Int).Lsh(g.P, 70),
			new(big.Int).Neg(new(big.Int).Mul(g.P, g.P)),
			new(big.Int).Sub(new(big.Int).Mul(x, g.P), one),
		}
		for _, a := range operands {
			for _, b := range operands {
				a0, b0 := new(big.Int).Set(a), new(big.Int).Set(b)
				got, want := g.Mul(a, b), residue(g, mulModOracle(a, b, g.P))
				if got.Cmp(want) != 0 {
					t.Errorf("Mul(%v, %v) = %v, want %v", a, b, got, want)
				}
				if a.Cmp(a0) != 0 || b.Cmp(b0) != 0 {
					t.Fatalf("Mul modified an operand")
				}
			}
		}
	}
}

// TestSharedGroupConcurrentUse: goroutines folding and exponentiating
// on the one shared MODP2048 group (one reducer, one set of comb
// tables) all get the oracle's answers — also when they all fold the
// same bases and exps slices, which MultiExp's chain must only read
// (it multiplies and subtracts in place, on copies). Run under -race.
func TestSharedGroupConcurrentUse(t *testing.T) {
	g := MODP2048()
	fb := g.NewFixedBase(g.G)
	const workers, terms = 8, 6
	sharedBases, sharedExps := bitFoldTerms(t, 12)
	sharedBases[3], sharedExps[7] = sharedBases[4], sharedExps[1] // one Int, two positions
	sharedWant := naiveMultiExp(g, sharedBases, sharedExps)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bases := make([]*big.Int, terms)
			exps := make([]*big.Int, terms)
			for i := range bases {
				var err error
				if bases[i], err = rand.Int(rand.Reader, g.P); err != nil {
					t.Error(err)
					return
				}
				if exps[i], err = rand.Int(rand.Reader, new(big.Int).Lsh(one, 128)); err != nil {
					t.Error(err)
					return
				}
			}
			got, err := g.MultiExp(bases, exps)
			if err != nil || got.Cmp(naiveMultiExp(g, bases, exps)) != 0 {
				t.Errorf("concurrent MultiExp disagrees with the product of Exps (err %v)", err)
			}
			if got, err = g.MultiExp(sharedBases, sharedExps); err != nil || got.Cmp(sharedWant) != 0 {
				t.Errorf("concurrent MultiExp on shared slices disagrees with the product of Exps (err %v)", err)
			}
			for _, e := range exps {
				if fb.Exp(e).Cmp(residue(g, new(big.Int).Exp(g.G, e, g.P))) != 0 {
					t.Errorf("concurrent FixedBase.Exp(%v) disagrees with big.Int.Exp", e)
				}
			}
			if g.Mul(bases[0], bases[1]).Cmp(residue(g, mulModOracle(bases[0], bases[1], g.P))) != 0 {
				t.Error("concurrent Mul disagrees with Mul + Mod")
			}
		}()
	}
	wg.Wait()
}

// FuzzMulMod: arbitrary bytes as a, b and as an odd modulus of at least
// two words; mulMod on the reduced operands never panics and always
// equals Mul + Mod.
func FuzzMulMod(f *testing.F) {
	p := MODP2048().P
	pm1 := new(big.Int).Sub(p, one)
	f.Add(pm1.Bytes(), pm1.Bytes(), p.Bytes())
	f.Add([]byte{0}, []byte{1}, TestGroup().P.Bytes())
	f.Add([]byte{0xff, 0xff}, []byte{0xff}, append([]byte{1}, make([]byte, 2*bits.UintSize/8)...))
	f.Add(make([]byte, 40), pm1.Bytes(), wholeWordsPrime(2).Bytes())
	f.Fuzz(func(t *testing.T, ab, bb, mb []byte) {
		m := new(big.Int).SetBytes(mb)
		m.SetBit(m, 0, 1)
		if len(m.Bits()) < 2 {
			m.SetBit(m, bits.UintSize, 1)
		}
		a := new(big.Int).SetBytes(ab)
		b := new(big.Int).SetBytes(bb)
		a.Mod(a, m)
		b.Mod(b, m)
		var s reduceScratch
		got := newReducer(m).mulMod(new(big.Int), a, b, &s)
		if want := mulModOracle(a, b, m); got.Cmp(want) != 0 {
			t.Fatalf("mulMod(%v, %v) mod %v = %v, want %v", a, b, m, got, want)
		}
	})
}

// modp2048Operands returns n pairs of random residues mod the MODP2048
// prime.
func modp2048Operands(tb testing.TB, n int) (as, bs []*big.Int) {
	p := MODP2048().P
	for i := 0; i < n; i++ {
		a, err := rand.Int(rand.Reader, p)
		if err != nil {
			tb.Fatal(err)
		}
		b, err := rand.Int(rand.Reader, p)
		if err != nil {
			tb.Fatal(err)
		}
		as, bs = append(as, a), append(bs, b)
	}
	return as, bs
}

// TestMulModCost is the gate on what one modular multiplication costs,
// independent of the host's speed: at MODP2048 a batch of mulMods costs
// at most 0.8x a batch of the Mul + QuoRem it replaced, the median over
// 1001 back-to-back pairs of batches (costtest.Ratio). It read
// 0.74–0.80x in ten `go test ./...` runs on a two-CPU host, where
// mulMod slows more than Mul + QuoRem when a neighbour keeps the core
// busy (the fastest sample of each side, the statistic this gate used
// to take, read ≈ 0.73x); 1.0x means a division is back under the
// kernel.
func TestMulModCost(t *testing.T) {
	costtest.Skip(t)
	g := MODP2048()
	as, bs := modp2048Operands(t, 256)
	var s reduceScratch
	var dst, prod, quo big.Int
	r := costtest.Ratio(1001, func() {
		for k := range as {
			g.red.mulMod(&dst, as[k], bs[k], &s)
		}
	}, func() {
		for k := range as {
			prod.Mul(as[k], bs[k])
			quo.QuoRem(&prod, g.P, &dst)
		}
	})
	t.Logf("mulMod costs %v Mul + QuoRem", r)
	if r.Median > 0.8 {
		t.Errorf("mulMod costs %.2fx Mul + QuoRem (limit 0.8x): the reduction is dividing again, or doing more than three multiplications", r.Median)
	}
}

func BenchmarkMulModMODP2048(b *testing.B) {
	g := MODP2048()
	as, bs := modp2048Operands(b, 64)
	var s reduceScratch
	var dst big.Int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.red.mulMod(&dst, as[i%64], bs[i%64], &s)
	}
}

// BenchmarkMulQuoRemMODP2048 is the route mulMod replaced, kept as the
// comparison point.
func BenchmarkMulQuoRemMODP2048(b *testing.B) {
	g := MODP2048()
	as, bs := modp2048Operands(b, 64)
	var dst, prod, quo big.Int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prod.Mul(as[i%64], bs[i%64])
		quo.QuoRem(&prod, g.P, &dst)
	}
}
