package group

import (
	"math/big"
	"math/bits"
)

// FixedBase precomputes a Lim–Lee comb (Lim & Lee, CRYPTO '94; HAC
// 14.6.3) for exponentiations with a fixed base: the commitment
// generators g and h are raised to a fresh exponent several times per
// proof and per verification.
//
// An exponent of at most |Q| bits is cut into combTeeth teeth of a =
// ⌈|Q|/combTeeth⌉ bits, and each tooth into columns of b =
// ⌈a/combCols⌉ bits. Bit k of column j takes one bit from every tooth,
// the same offset j·b + k into each, and those combTeeth bits index a
// table: tables[j][u] = Π_{i ∈ u} base^(2^(i·a + j·b)). So one
// exponentiation is b − 1 squarings and one multiplication per column
// and bit, 31 + 256 = 287 at MODP2048 (|Q| = 2047, a = 256, b = 32)
// from 8 × 255 table entries, where 4-bit windows took ≈ 480 from
// 8 192. Every product is reduced by the group's Barrett reducer
// (reduce.go) into a scratch the call owns. At MODP2048 that is ≈ 0.6×
// what the windows cost (TestFixedBaseCost) and about a sixth of
// big.Int.Exp, whose Montgomery kernel is assembly and ahead per
// multiplication but does ≈ 2 500 of them.
//
// The table is indexed by bits of the exponent, secret ones included,
// so Exp is not constant-time: which entries it reads, and whether it
// multiplies at all for a zero index, depend on the exponent.
type FixedBase struct {
	g      *Group
	a, b   int          // tooth and column widths in bits
	tables [][]*big.Int // tables[j][u], u in [1, 2^combTeeth); [0] is unused
}

// The comb's shape, chosen at MODP2048 with BenchmarkFixedBaseExp:
// ROADMAP lists the shapes sized, with their tables and costs.
const (
	combTeeth = 8 // h: teeth, the bits that index one table
	combCols  = 8 // v: columns, one table each
)

// NewFixedBase builds the comb's tables for base: |Q| squarings walk
// base^(2^t) past every tooth and column start, then one multiplication
// per entry whose index is not a power of two fills each table.
//
// When a is small, (combCols − 1)·b can reach past a tooth's end (at
// |Q| = 16, a = 2 and b = 1). Those columns would read the next tooth's
// bits, so only the ⌈a/b⌉ columns that start inside a tooth get a table,
// and Exp skips offsets j·b + k ≥ a.
func (g *Group) NewFixedBase(base *big.Int) *FixedBase {
	a := (g.Q.BitLen() + combTeeth - 1) / combTeeth
	b := (a + combCols - 1) / combCols
	fb := &FixedBase{g: g, a: a, b: b, tables: make([][]*big.Int, (a+b-1)/b)}
	for j := range fb.tables {
		fb.tables[j] = make([]*big.Int, 1<<combTeeth)
	}
	var s reduceScratch
	// cur = base^(2^t) as t advances to each start i·a + j·b in turn.
	cur := new(big.Int).Set(g.red.normalise(base))
	t := 0
	for i := 0; i < combTeeth; i++ {
		for j, table := range fb.tables {
			for ; t < i*a+j*b; t++ {
				g.red.mulMod(cur, cur, cur, &s)
			}
			table[1<<i] = new(big.Int).Set(cur)
		}
	}
	for _, table := range fb.tables {
		for u := 3; u < len(table); u++ {
			if low := u & -u; low != u {
				table[u] = g.red.mulMod(new(big.Int), table[u^low], table[low], &s)
			}
		}
	}
	return fb
}

// Exp computes |base^e mod P|. Negative exponents are reduced mod Q, as
// in Group.Exp; the tables stay in Z_P*.
func (fb *FixedBase) Exp(e *big.Int) *big.Int {
	words := new(big.Int).Mod(e, fb.g.Q).Bits()
	result := new(big.Int)
	started := false
	var s reduceScratch
	for k := fb.b - 1; k >= 0; k-- {
		if started {
			fb.g.red.mulMod(result, result, result, &s)
		}
		for j, table := range fb.tables {
			off := j*fb.b + k
			if off >= fb.a {
				break // offset k lies past the tooth here and in every later column
			}
			u := 0
			for i := 0; i < combTeeth; i++ {
				u |= bitAt(words, i*fb.a+off) << i
			}
			switch {
			case u == 0:
			case started:
				fb.g.red.mulMod(result, result, table[u], &s)
			default:
				result.Set(table[u])
				started = true
			}
		}
	}
	if !started {
		return result.SetInt64(1)
	}
	return fb.g.abs(result)
}

// bitAt returns bit n of the little-endian word slice words.
func bitAt(words []big.Word, n int) int {
	w := n / bits.UintSize
	if w >= len(words) {
		return 0
	}
	return int(words[w]>>(n%bits.UintSize)) & 1
}
