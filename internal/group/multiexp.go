package group

import (
	"errors"
	"math/big"
)

// multiExpWindow is the sliding-window width of MultiExp: digits are
// the odd values below 2^multiExpWindow, so each base carries a table
// of 2^(multiExpWindow-1) = 8 odd powers.
const multiExpWindow = 4

// MultiExp computes the simultaneous product Π bases[i]^exps[i] mod P
// using Straus's interleaved method with sliding windows: each exponent
// is cut into odd 4-bit digits separated by runs of zeros (one digit
// per ~5 bits on average), each base carries an 8-entry table of its
// odd powers b, b³, …, b¹⁵ (one squaring and seven multiplications),
// and the squarings between digits are shared across every base. For n
// terms of b-bit exponents the cost is ~b squarings + n·(8 + b/5)
// multiplications — 34 per 128-bit term — versus n·(b + b/2) for n
// independent big.Int.Exp calls: the amortization that makes batch
// Σ-proof verification pay off. Every product, in the tables and in the
// fold, is reduced by the group's Barrett reducer (reduce.go) — three
// big.Int.Mul and no division — into one scratch this call owns, so
// the main loop allocates nothing per multiplication and concurrent
// folds share only the reducer's constants.
//
// Exponents are reduced mod Q (negative exponents are interpreted mod
// Q, as in Exp). Bases are reduced mod P. Terms with a zero exponent
// contribute nothing and are skipped.
func (g *Group) MultiExp(bases, exps []*big.Int) (*big.Int, error) {
	if len(bases) != len(exps) {
		return nil, errors.New("group: multiexp length mismatch")
	}
	// byPos[p] lists the table entries to multiply in once the shared
	// accumulator stands at bit p of the exponents.
	var byPos [][]*big.Int
	var s reduceScratch
	for i := range bases {
		if bases[i] == nil || exps[i] == nil {
			return nil, errors.New("group: nil multiexp term")
		}
		e := new(big.Int).Mod(exps[i], g.Q)
		if e.Sign() == 0 {
			continue
		}
		if n := e.BitLen(); n > len(byPos) {
			byPos = append(byPos, make([][]*big.Int, n-len(byPos))...)
		}
		// table[k] = base^(2k+1) mod P.
		var table [1 << (multiExpWindow - 1)]*big.Int
		table[0] = g.red.normalise(bases[i])
		sq := g.red.mulMod(new(big.Int), table[0], table[0], &s)
		for k := 1; k < len(table); k++ {
			table[k] = g.red.mulMod(new(big.Int), table[k-1], sq, &s)
		}
		// Right-to-left sliding windows: skip zero bits; at a one bit
		// take the next multiExpWindow bits as an odd digit.
		for p := 0; p < e.BitLen(); {
			if e.Bit(p) == 0 {
				p++
				continue
			}
			d := uint(0)
			for b := multiExpWindow - 1; b >= 0; b-- {
				d = d<<1 | e.Bit(p+b)
			}
			byPos[p] = append(byPos[p], table[d>>1])
			p += multiExpWindow
		}
	}
	result := big.NewInt(1)
	for p := len(byPos) - 1; p >= 0; p-- {
		if p != len(byPos)-1 {
			g.red.mulMod(result, result, result, &s)
		}
		for _, t := range byPos[p] {
			g.red.mulMod(result, result, t, &s)
		}
	}
	return result, nil
}
