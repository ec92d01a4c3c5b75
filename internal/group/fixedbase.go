package group

import (
	"math/big"
	"math/bits"
)

// FixedBase precomputes window tables for exponentiations with a fixed
// base (the commitment generators g and h are used thousands of times per
// proof). With 4-bit windows, an exponentiation becomes ~q.BitLen()/4
// modular multiplications with no squarings — 2–3× faster than
// big.Int.Exp for repeated bases (measured 2.9× at MODP2048, 1.44 ms
// against 4.14 ms: big.Int.Exp multiplies in Montgomery form, which
// Group.Mul's multiply-then-reduce cannot match per multiplication).
type FixedBase struct {
	g      *Group
	tables [][16]*big.Int // tables[w][d] = base^(d << (4*w)) mod P
}

const windowBits = 4

// NewFixedBase builds the precomputation table for base. The table costs
// O(q.BitLen()/4 × 16) group multiplications once; Exp then amortizes it.
func (g *Group) NewFixedBase(base *big.Int) *FixedBase {
	windows := (g.Q.BitLen() + windowBits - 1) / windowBits
	fb := &FixedBase{g: g, tables: make([][16]*big.Int, windows)}
	// cur = base^(1 << (4*w)) as w advances.
	cur := new(big.Int).Set(base)
	for w := 0; w < windows; w++ {
		fb.tables[w][0] = big.NewInt(1)
		acc := big.NewInt(1)
		for d := 1; d < 16; d++ {
			acc = g.Mul(acc, cur)
			fb.tables[w][d] = acc
		}
		// Advance cur to base^(16^(w+1)) = (cur^15 * cur).
		cur = g.Mul(fb.tables[w][15], cur)
	}
	return fb
}

// Exp computes base^e mod P. Negative exponents are reduced mod Q, as in
// Group.Exp.
func (fb *FixedBase) Exp(e *big.Int) *big.Int {
	exp := new(big.Int).Mod(e, fb.g.Q)
	result := big.NewInt(1)
	words := exp.Bits()
	// Iterate 4-bit windows of the exponent.
	bitLen := exp.BitLen()
	for w := 0; w*windowBits < bitLen; w++ {
		d := nibbleAt(words, w)
		if d != 0 {
			if w >= len(fb.tables) {
				break // cannot happen after Mod(Q), defensive
			}
			result = fb.g.Mul(result, fb.tables[w][d])
		}
	}
	return result
}

// nibbleAt extracts the w-th 4-bit window from a big.Int word slice.
func nibbleAt(words []big.Word, w int) uint {
	wordNibbles := bits.UintSize / windowBits
	wi := w / wordNibbles
	if wi >= len(words) {
		return 0
	}
	shift := uint(w%wordNibbles) * windowBits
	return uint(words[wi]>>shift) & 0xF
}
