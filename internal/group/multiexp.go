package group

import (
	"errors"
	"math/big"
	"slices"
)

// term is one factor b^e of a product in the making.
type term struct{ e, b *big.Int }

// MultiExp computes the element |Π bases[i]^exps[i] mod P| with a
// Bos–Coster vector-addition chain (de Rooij 1994). The terms sit in a
// max-heap ordered by exponent, and since
//
//	b₁^e₁ · b₂^e₂ = b₁^(e₁ − q·e₂) · (b₂ · b₁^q)^e₂,   q = ⌊e₁/e₂⌋,
//
// the two largest (e₁, b₁), (e₂, b₂) become (e₁ mod e₂, b₁) and
// (e₂, b₂·b₁^q) until one term is left. The two largest of n random
// exponents differ in about their top lg n bits, so q is nearly always
// 1 and one multiplication takes ≈ lg n bits off the largest exponent:
// no per-base tables, no squarings, and a price per term that falls as
// the fold grows — 27 multiplications at a 288-term fold of bit proofs
// (43.5 for interleaved 4-bit windows), level at a dozen terms; the zk
// batch verifier folds 120 terms per engine group. Where
// e₁ is more than a bit longer than e₂, b₁^q is a windowed
// exponentiation (reducer.exp), as is the last term: a step never costs
// more than square-and-multiply over the bits it removes, so no input
// makes a fold dearer than its terms exponentiated one by one.
//
// Every product is reduced by the group's Barrett reducer (reduce.go)
// into one scratch this call owns; the chain stays in Z_P* and only its
// result is mapped to a representative. The chain multiplies bases in
// place, so it works on copies: the caller's slices and Ints come back
// untouched, one *big.Int may sit at several positions, and concurrent
// folds share only the reducer's constants. Exponents are reduced mod Q
// (negative ones are interpreted mod Q, as in Exp), bases mod P; a term
// with a zero exponent contributes nothing and is skipped.
//
// The run time depends on the exponents' values, not only on their
// lengths (math/big never was constant-time). The batch verifiers'
// exponents are their own fresh randomness times hash-bound challenges,
// fixed after the prover has committed and discarded after the fold;
// do not fold a secret that outlives the call.
func (g *Group) MultiExp(bases, exps []*big.Int) (*big.Int, error) {
	if len(bases) != len(exps) {
		return nil, errors.New("group: multiexp length mismatch")
	}
	h := make([]term, 0, len(bases))
	for i := range bases {
		if bases[i] == nil || exps[i] == nil {
			return nil, errors.New("group: nil multiexp term")
		}
		e := new(big.Int).Mod(exps[i], g.Q)
		if e.Sign() != 0 {
			h = append(h, term{e, new(big.Int).Mod(bases[i], g.P)}) // a copy, in [0, P)
		}
	}
	if len(h) == 0 {
		return big.NewInt(1), nil
	}
	slices.SortFunc(h, func(x, y term) int { return y.e.Cmp(x.e) }) // descending order is heap order
	var s reduceScratch
	var q big.Int
	for len(h) > 1 {
		top, next := h[0], h[1] // next: the larger child of the root
		if len(h) > 2 && h[2].e.Cmp(next.e) > 0 {
			next = h[2]
		}
		if top.e.BitLen() <= next.e.BitLen()+1 {
			// q <= 3: one subtraction per unit of q costs what b₁^q would.
			top.e.Sub(top.e, next.e)
			g.red.mulMod(next.b, next.b, top.b, &s)
		} else {
			q.QuoRem(top.e, next.e, top.e)
			g.red.mulMod(next.b, next.b, g.red.exp(top.b, &q, &s), &s)
		}
		if top.e.Sign() == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		sink(h)
	}
	return g.abs(g.red.exp(h[0].b, h[0].e, &s)), nil
}

// sink restores heap order after the root has shrunk. The new root
// nearly always belongs near the bottom (the two largest exponents
// differ by less than most of the rest), so it walks the larger children
// down to a leaf — one comparison a level, not two — and climbs back.
func sink(h []term) {
	t, i := h[0], 0
	for c := 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) && h[c+1].e.Cmp(h[c].e) > 0 {
			c++
		}
		h[i], i = h[c], c
	}
	for ; i > 0 && h[(i-1)/2].e.Cmp(t.e) < 0; i = (i - 1) / 2 {
		h[i] = h[(i-1)/2]
	}
	h[i] = t
}

// exp returns b^e mod P as a new Int, for b in [0, P) and e > 0, by
// left-to-right sliding windows: a zero bit is a squaring, and a one bit
// opens a window of up to four bits ending in a one — that many
// squarings and one multiplication by an odd power of b. The odd powers
// are computed as windows first ask for them, so a small e (a
// Bos–Coster quotient, usually) pays for no table it does not use.
func (r *reducer) exp(b, e *big.Int, s *reduceScratch) *big.Int {
	odd := []*big.Int{b} // odd[k] = b^(2k+1)
	var sq, acc *big.Int // b², once odd has to grow; the result so far
	for i := e.BitLen() - 1; i >= 0; {
		if e.Bit(i) == 0 {
			r.mulMod(acc, acc, acc, s) // acc != nil: e's top bit is set
			i--
			continue
		}
		lo := max(i-3, 0)
		for e.Bit(lo) == 0 {
			lo++
		}
		d := uint(0)
		for ; i >= lo; i-- {
			d = d<<1 | e.Bit(i)
			if acc != nil {
				r.mulMod(acc, acc, acc, s)
			}
		}
		for len(odd) <= int(d>>1) {
			if sq == nil {
				sq = r.mulMod(new(big.Int), b, b, s)
			}
			odd = append(odd, r.mulMod(new(big.Int), odd[len(odd)-1], sq, s))
		}
		if acc == nil {
			acc = new(big.Int).Set(odd[d>>1])
		} else {
			r.mulMod(acc, acc, odd[d>>1], s)
		}
	}
	return acc
}
