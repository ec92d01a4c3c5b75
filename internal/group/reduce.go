package group

import (
	"math/big"
	"math/bits"
)

// reducer holds the per-modulus constants of Barrett reduction (HAC
// 14.42) in base b = 2^bits.UintSize: the modulus P, its length n in
// words, and µ = ⌊b^2n / P⌋. It is immutable once built, so one
// reducer serves every goroutine that uses its Group.
type reducer struct {
	p  *big.Int
	mu *big.Int
	n  int
}

func newReducer(p *big.Int) *reducer {
	n := len(p.Bits())
	mu := new(big.Int).Lsh(one, uint(2*n*bits.UintSize))
	mu.Quo(mu, p)
	return &reducer{p: p, mu: mu, n: n}
}

// reduceScratch is the working storage of mulMod: the product, the
// quotient estimate times µ, and the quotient estimate times P. It
// belongs to one caller at a time; the zero value is ready to use and
// grows to its final size on the first call.
type reduceScratch struct {
	t, q2, qp big.Int
}

// mulMod sets dst = a·b mod P for a, b in [0, P) and returns dst. dst
// may alias a or b (or both), but not a field of s.
//
// Barrett's estimate of q = ⌊t/P⌋ for t = a·b is
//
//	q̂ = ⌊ ⌊t / b^(n-1)⌋ · µ / b^(n+1) ⌋,   q − 2 ≤ q̂ ≤ q,
//
// so r = t − q̂·P lies in [0, 3P) and at most two subtractions of P
// finish the reduction: three multiplications and no division. Both
// floors divide by a power of the word base, so they are the upper
// words of the previous product — q1 and q3 below are SetBits views of
// s.t and s.q2, read once by the next multiplication and dropped.
func (r *reducer) mulMod(dst, a, b *big.Int, s *reduceScratch) *big.Int {
	var q1, q3 big.Int
	s.t.Mul(a, b)
	q1.SetBits(wordsFrom(&s.t, r.n-1))
	s.q2.Mul(&q1, r.mu)
	q3.SetBits(wordsFrom(&s.q2, r.n+1))
	s.qp.Mul(&q3, r.p)
	dst.Sub(&s.t, &s.qp)
	for dst.Cmp(r.p) >= 0 {
		dst.Sub(dst, r.p)
	}
	return dst
}

// wordsFrom returns the words of x >= 0 from word k up, ⌊x / b^k⌋, as
// a view of x's storage (empty when x < b^k).
func wordsFrom(x *big.Int, k int) []big.Word {
	w := x.Bits()
	if len(w) <= k {
		return nil
	}
	return w[k:]
}

// normalise returns x mod P in [0, P): x itself (not a copy) when it is
// already there.
func (r *reducer) normalise(x *big.Int) *big.Int {
	if x.Sign() >= 0 && x.Cmp(r.p) < 0 {
		return x
	}
	return new(big.Int).Mod(x, r.p)
}
