package group

import (
	"bufio"
	"math/big"
	"math/bits"
	"os"
	"strings"
	"testing"

	"prever/internal/costtest"
)

// windowFixedBase is the 4-bit fixed-window method the comb replaced:
// tables[w][d] = base^(d << 4w), and an exponentiation multiplies in one
// entry per nonzero nibble of the exponent, ≈ |Q|/4 multiplications
// from |Q|/4 × 16 entries. It stays as TestFixedBaseCost's comparison
// point.
type windowFixedBase struct {
	g      *Group
	tables [][16]*big.Int
}

func newWindowFixedBase(g *Group, base *big.Int) *windowFixedBase {
	windows := (g.Q.BitLen() + 3) / 4
	fb := &windowFixedBase{g: g, tables: make([][16]*big.Int, windows)}
	var s reduceScratch
	cur := g.red.normalise(base) // base^(16^w) as w advances
	for w := range fb.tables {
		fb.tables[w][0] = big.NewInt(1)
		for d := 1; d < 16; d++ {
			fb.tables[w][d] = g.red.mulMod(new(big.Int), fb.tables[w][d-1], cur, &s)
		}
		cur = g.red.mulMod(new(big.Int), fb.tables[w][15], cur, &s)
	}
	return fb
}

func (fb *windowFixedBase) Exp(e *big.Int) *big.Int {
	words := new(big.Int).Mod(e, fb.g.Q).Bits()
	result := big.NewInt(1)
	var s reduceScratch
	for w, table := range fb.tables {
		wi, shift := w/(bits.UintSize/4), uint(w%(bits.UintSize/4))*4
		if wi >= len(words) {
			break
		}
		if d := uint(words[wi]>>shift) & 0xF; d != 0 {
			fb.g.red.mulMod(result, result, table[d], &s)
		}
	}
	return fb.g.abs(result)
}

// safePrimeGroups returns the groups testdata/safe_primes.txt lists, one
// for each bit length of Q from 16 to 320, each checked by New.
func safePrimeGroups(t *testing.T) []*Group {
	f, err := os.Open("testdata/safe_primes.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var groups []*Group
	lines := bufio.NewScanner(f)
	for lines.Scan() {
		if strings.HasPrefix(lines.Text(), "#") {
			continue
		}
		q, ok := new(big.Int).SetString(lines.Text(), 16)
		if !ok {
			t.Fatalf("testdata/safe_primes.txt: %q is not hex", lines.Text())
		}
		p := new(big.Int).Lsh(q, 1)
		p.Add(p, one)
		if !p.ProbablyPrime(20) || !q.ProbablyPrime(20) {
			t.Fatalf("testdata/safe_primes.txt: %x: not a safe-prime pair", q)
		}
		g := newGroup(p, q, big.NewInt(4))
		if want := 16 + len(groups); q.BitLen() != want {
			t.Fatalf("testdata/safe_primes.txt: line for |Q| = %d holds a %d-bit Q", want, q.BitLen())
		}
		groups = append(groups, g)
	}
	if err := lines.Err(); err != nil {
		t.Fatal(err)
	}
	if len(groups) != 320-16+1 {
		t.Fatalf("testdata/safe_primes.txt lists %d groups, want one for each |Q| from 16 to 320", len(groups))
	}
	return groups
}

// TestFixedBaseEveryWidth checks FixedBase.Exp against the residue of
// big.Int.Exp at every bit length of Q from 16 to 320, at TestGroup and
// at MODP2048: on the edge exponents, and on a single set bit at every
// position below |Q|, which is every tooth i, column j and offset k of
// the comb, i·a + j·b + k. Small widths are where the comb's shape
// degenerates: at |Q| = 16, a = 2 and b = 1, so six of the eight
// columns would start past a tooth's end, and at |Q| = 65, a = 9 and
// b = 2, so the fifth column ends past it.
func TestFixedBaseEveryWidth(t *testing.T) {
	for _, g := range append(safePrimeGroups(t), TestGroup(), MODP2048()) {
		base := g.DeriveElement("fixedbase-width")
		fb := g.NewFixedBase(base)
		oracle := func(e *big.Int) *big.Int {
			return residue(g, new(big.Int).Exp(base, new(big.Int).Mod(e, g.Q), g.P))
		}
		q := g.Q
		all := new(big.Int).Sub(new(big.Int).Lsh(one, uint(combTeeth*fb.a+5)), one)
		exps := []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(2),
			new(big.Int).Sub(q, one), new(big.Int).Set(q), new(big.Int).Add(q, one),
			big.NewInt(-1), new(big.Int).Neg(q), new(big.Int).Sub(big.NewInt(-3), q),
			new(big.Int).Add(new(big.Int).Lsh(q, 9), big.NewInt(5)),
			all, new(big.Int).Neg(all),
			new(big.Int).Rsh(all, uint(all.BitLen()-q.BitLen())), // |Q| ones, above Q
		}
		for i := 0; i < 4; i++ {
			e, err := g.RandScalar(nil)
			if err != nil {
				t.Fatal(err)
			}
			exps = append(exps, e)
		}
		for _, e := range exps {
			if got, want := fb.Exp(e), oracle(e); got.Cmp(want) != 0 {
				t.Fatalf("|Q| = %d: FixedBase.Exp(%v) = %v, want %v", q.BitLen(), e, got, want)
			}
		}
		pow := new(big.Int).Mod(base, g.P) // base^(2^n)
		for n := 0; n < q.BitLen(); n++ {
			if got := fb.Exp(new(big.Int).Lsh(one, uint(n))); got.Cmp(residue(g, pow)) != 0 {
				off := n % fb.a
				t.Fatalf("|Q| = %d (a = %d, b = %d): FixedBase.Exp(2^%d) is wrong: tooth %d, column %d, offset %d", q.BitLen(), fb.a, fb.b, n, n/fb.a, off/fb.b, off%fb.b)
			}
			pow = mulModOracle(pow, pow, g.P)
		}
	}
}

// TestFixedBaseCost is the gate on what the comb saves: at MODP2048 a
// FixedBase.Exp costs at most 0.75x the 4-bit window exponentiation it
// replaced, the median over 101 back-to-back pairs of 8 exponentiations
// each (costtest.Ratio). The comb does 287 multiplications where the
// windows do ≈ 480: ≈ 0.6x measured; 1.0x means the windows are back.
func TestFixedBaseCost(t *testing.T) {
	costtest.Skip(t)
	g := MODP2048()
	fb, win := g.NewFixedBase(g.G), newWindowFixedBase(g, g.G)
	exps := make([]*big.Int, 8)
	for i := range exps {
		var err error
		if exps[i], err = g.RandScalar(nil); err != nil {
			t.Fatal(err)
		}
		if fb.Exp(exps[i]).Cmp(win.Exp(exps[i])) != 0 {
			t.Fatalf("the comb and the windows disagree on %v", exps[i])
		}
	}
	r := costtest.Ratio(101, func() {
		for _, e := range exps {
			fb.Exp(e)
		}
	}, func() {
		for _, e := range exps {
			win.Exp(e)
		}
	})
	t.Logf("FixedBase.Exp costs %v the 4-bit windows", r)
	if r.Median > 0.75 {
		t.Errorf("FixedBase.Exp costs %.2fx the 4-bit window exponentiation (limit 0.75x): the comb is doing more multiplications than b − 1 + a", r.Median)
	}
}

// benchResult and benchTable keep the compiler from dropping a
// benchmarked call.
var (
	benchResult *big.Int
	benchTable  *FixedBase
)

func benchmarkExps(b *testing.B, g *Group) []*big.Int {
	exps := make([]*big.Int, 64)
	for i := range exps {
		var err error
		if exps[i], err = g.RandScalar(nil); err != nil {
			b.Fatal(err)
		}
	}
	return exps
}

// BenchmarkFixedBaseExp is one comb exponentiation at MODP2048, the
// size commit.Params runs at; BenchmarkFixedBaseWindowExp is the 4-bit
// window routine it replaced.
func BenchmarkFixedBaseExp(b *testing.B) {
	g := MODP2048()
	fb := g.NewFixedBase(g.G)
	exps := benchmarkExps(b, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = fb.Exp(exps[i%64])
	}
}

func BenchmarkFixedBaseWindowExp(b *testing.B) {
	g := MODP2048()
	fb := newWindowFixedBase(g, g.G)
	exps := benchmarkExps(b, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = fb.Exp(exps[i%64])
	}
}

// BenchmarkNewFixedBase is the table build commit.NewParams pays twice,
// once for each generator.
func BenchmarkNewFixedBase(b *testing.B) {
	g := MODP2048()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTable = g.NewFixedBase(g.G)
	}
}
