package group

import (
	"math/big"
	"math/bits"
)

// The Jacobi kernel. Contains decides subgroup membership by (x/P) = 1,
// and the batch verifiers call it on every prover-supplied element, so
// this is the hottest pre-check in the proof path. math/big.Jacobi
// answers with ~1200 allocating full-width Mods at 2048 bits; the
// kernel below does the same job on fixed stack buffers with word
// arithmetic only.
//
// It is the binary Jacobi algorithm driven the way Bernstein–Yang
// "divsteps" drive a GCD: instead of comparing the multi-limb values
// (which needs their high limbs) the choice between "halve g" and
// "swap, then add f to g and halve" is made from a step counter eta
// and the parity of g. Every decision — parity, the (2/f) sign flip
// (f mod 8), the reciprocity flip (f, g mod 4) — then depends only on
// low bits, so jacobiSteps can run jacobiBatch steps on the low 64-bit
// words alone and hand back a 2×2 transition matrix, which jacobiApply
// multiplies into the full values in one pass. Only additions are used
// (g ← (g + w·f) / 2^k, never g − f), so f and g stay non-negative and
// the Jacobi symbol's sign rules apply at every step; the price is
// that, unlike true divsteps, no worst-case step bound is known, hence
// the batch cap and the reported "ok".
//
// The kernel is variable-time by design: it only ever sees public,
// prover-supplied elements. Never route a secret through it.

const (
	// jacobiLimbs is the kernel's fixed buffer width (4096-bit moduli);
	// wider moduli fall back to math/big.Jacobi.
	jacobiLimbs = 64
	// jacobiBatch is the number of steps run on the low words per
	// matrix application. The low words lose one valid bit per step
	// and the (2/f) rule reads f mod 8, so 62 is the most a 64-bit
	// word can carry.
	jacobiBatch = 62
)

// jacobi returns the Jacobi symbol (a/n) for odd n > 0 and a >= 0.
func jacobi(a, n *big.Int) int {
	if j, ok := jacobiKernel(a.Bits(), n.Bits()); ok {
		return j
	}
	return big.Jacobi(a, n)
}

// jacobiKernel computes (a/n) for odd n on fixed buffers. ok is false
// when the operands are wider than the buffers or the iteration hit its
// batch cap without converging; the caller then falls back to
// math/big.Jacobi.
func jacobiKernel(a, n []big.Word) (j int, ok bool) {
	if len(a)*bits.UintSize > jacobiLimbs*64 || len(n)*bits.UintSize > jacobiLimbs*64 {
		return 0, false
	}
	var fb, gb [jacobiLimbs]uint64
	ln := max(fillLimbs(&fb, n), fillLimbs(&gb, a), 1)
	f, g := fb[:ln], gb[:ln]
	if isWord(g, 0) {
		if isWord(f, 1) {
			return 1, true // (0/1) = 1
		}
		return 0, true
	}
	eta, jac := -1, uint64(0)
	for batches := jacobiBatchCap(ln); batches > 0; batches-- {
		var m [4]uint64
		eta, jac, m = jacobiSteps(eta, f[0], g[0], jac)
		jacobiApply(&m, f, g)
		if isWord(f, 1) {
			return 1 - 2*int(jac&1), true
		}
		if limbsEqual(f, g) {
			return 0, true // f = g = gcd(a, n) > 1
		}
		for ln > 1 && f[ln-1]|g[ln-1] == 0 {
			ln--
		}
		f, g = f[:ln], g[:ln]
	}
	return 0, false
}

// jacobiBatchCap bounds the batches spent on ln-limb operands. Dense
// operands need 3.1 batches per limb with almost no spread (95–102 at
// MODP2048 over 10⁴ random elements, TestJacobiKernelNeverHitsCap);
// sparse ones can need three times that, so the cap also bounds what a
// crafted element costs before math/big.Jacobi takes over.
func jacobiBatchCap(ln int) int { return 4*ln + 8 }

// jacobiSteps runs jacobiBatch steps on the low words of (f, g) and
// returns the new eta, the updated sign accumulator (bit 0 set = the
// symbol flipped an odd number of times; other bits are noise) and the
// transition matrix m = (u v; q r) with
//
//	u·f + v·g = f' · 2^jacobiBatch
//	q·f + r·g = g' · 2^jacobiBatch
//
// All four entries are non-negative and each row sums to at most
// 2^jacobiBatch.
func jacobiSteps(eta int, f, g, jac uint64) (int, uint64, [4]uint64) {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	for i := jacobiBatch; ; {
		// Halve g while it is even, at most i times (sentinel bit).
		zeros := bits.TrailingZeros64(g | ^uint64(0)<<i)
		g >>= zeros
		u <<= zeros
		v <<= zeros
		eta -= zeros
		i -= zeros
		// (2/f) = -1 iff f mod 8 is 3 or 5; it counts once per halving.
		jac ^= uint64(zeros) & (f>>1 ^ f>>2)
		if i == 0 {
			return eta, jac, [4]uint64{u, v, q, r}
		}
		if eta < 0 {
			// g has been halved more often than f: swap roles.
			// Reciprocity flips the sign iff f ≡ g ≡ 3 (mod 4).
			eta = -eta
			f, g = g, f
			u, q = q, u
			v, r = r, v
			jac ^= (f & g) >> 1
		}
		// The next min(eta+1, i) steps would each add f to an odd g and
		// halve, with no swap in between; do up to six of them at once
		// by adding the multiple w·f that clears that many low bits of
		// g. f·(f²−2) ≡ −1/f (mod 64) for odd f, so w ≡ −g/f.
		k := min(eta+1, i, 6)
		w := (f * g * (f*f - 2)) & (1<<k - 1)
		g += f * w
		q += u * w
		r += v * w
	}
}

// jacobiApply replaces (f, g) by m·(f, g) / 2^jacobiBatch, exactly.
func jacobiApply(m *[4]uint64, f, g []uint64) {
	u, v, q, r := m[0], m[1], m[2], m[3]
	var cf, cg, pf, pg uint64 // carries, and the previous product words
	for j := range f {
		fj, gj := f[j], g[j]
		nf := mulAdd2(u, fj, v, gj, &cf)
		ng := mulAdd2(q, fj, r, gj, &cg)
		if j > 0 {
			f[j-1] = pf>>jacobiBatch | nf<<(64-jacobiBatch)
			g[j-1] = pg>>jacobiBatch | ng<<(64-jacobiBatch)
		}
		pf, pg = nf, ng
	}
	last := len(f) - 1
	f[last] = pf>>jacobiBatch | cf<<(64-jacobiBatch)
	g[last] = pg>>jacobiBatch | cg<<(64-jacobiBatch)
}

// mulAdd2 returns the low word of a·x + b·y + *carry and stores the
// high word back in *carry. With a + b <= 2^62 the sum fits 128 bits.
func mulAdd2(a, x, b, y uint64, carry *uint64) uint64 {
	h1, l1 := bits.Mul64(a, x)
	h2, l2 := bits.Mul64(b, y)
	lo, c := bits.Add64(l1, l2, 0)
	hi := h1 + h2 + c
	lo, c = bits.Add64(lo, *carry, 0)
	*carry = hi + c
	return lo
}

// fillLimbs copies a big.Int word slice into 64-bit limbs (whatever the
// platform's word size) and returns the number of limbs used.
func fillLimbs(dst *[jacobiLimbs]uint64, w []big.Word) int {
	for i, x := range w {
		dst[i*bits.UintSize/64] |= uint64(x) << (uint(i*bits.UintSize) % 64)
	}
	return (len(w)*bits.UintSize + 63) / 64
}

func isWord(x []uint64, w uint64) bool {
	if x[0] != w {
		return false
	}
	for _, l := range x[1:] {
		if l != 0 {
			return false
		}
	}
	return true
}

func limbsEqual(x, y []uint64) bool {
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
