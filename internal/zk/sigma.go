// Package zk implements non-interactive zero-knowledge proofs from
// Σ-protocols compiled with the Fiat–Shamir transform. It is PReVer's
// substitute for zk-SNARKs in Research Challenges 1 and 4: an untrusted
// data manager (or a data owner submitting a private update) proves that a
// hidden value satisfies a constraint — without revealing the value.
//
// Provided proofs, all over Pedersen commitments in a Schnorr group:
//
//   - ProveOpening / VerifyOpening: knowledge of (m, r) opening C.
//   - ProveBit: a commitment hides 0 or 1 (CDS OR-composition).
//   - ProveBound / VerifyBound: a commitment hides a value in [0, B],
//     as one range proof over exactly [0, B]: a bit decomposition whose
//     weights sum to B, a proof per bit and a homomorphic recomposition.
//
// All proofs are bound to a caller-supplied context string so a proof for
// one update cannot be replayed for another.
package zk

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"prever/internal/commit"
	"prever/internal/ct"
	"prever/internal/group"
)

// ErrInvalidProof is returned whenever verification fails.
var ErrInvalidProof = errors.New("zk: proof verification failed")

// scalarOK reports whether a proof scalar (response or challenge) is a
// canonical element of Z_Q. Verifiers reject non-canonical scalars:
// z and z+Q satisfy the same equations, so accepting both would make
// every proof malleable (and break batch-verifier folding, which sums
// scalars before reducing).
func scalarOK(g *group.Group, v *big.Int) bool {
	return v != nil && v.Sign() >= 0 && v.Cmp(g.Q) < 0
}

// challengeBits is the Fiat–Shamir challenge width. A Σ-protocol's
// soundness is the size of its challenge space, not the group order, so
// 128-bit challenges give the same 2^-128 forgery bound as the batch
// verifier's RLC coefficients — while keeping every challenge-side
// exponentiation (y^c in sequential verification, the C^{ρ·c} terms of
// the batched fold) at quarter width instead of full group-order width.
const challengeBits = 128

// challengeWidth returns the challenge bit width for a group: 128,
// clamped below the group order for small test groups.
func challengeWidth(g *group.Group) int {
	if qb := g.Q.BitLen() - 1; qb < challengeBits {
		return qb
	}
	return challengeBits
}

// challengeScalar hashes a transcript to a challenge in [0, 2^width).
func challengeScalar(g *group.Group, domain string, parts ...[]byte) *big.Int {
	c := g.HashToScalar(domain, parts...)
	mask := new(big.Int).Lsh(big.NewInt(1), uint(challengeWidth(g)))
	mask.Sub(mask, big.NewInt(1))
	return c.And(c, mask)
}

// randChallenge samples a uniform element of the challenge space (the
// CDS OR-composition simulates the false branch with a random
// challenge share).
func randChallenge(g *group.Group, rng io.Reader) (*big.Int, error) {
	if rng == nil {
		rng = rand.Reader
	}
	max := new(big.Int).Lsh(big.NewInt(1), uint(challengeWidth(g)))
	return rand.Int(rng, max)
}

// challengeOK reports whether a challenge share lies in the challenge
// space; verifyBit insists on it so a cheating prover cannot smuggle in
// full-width challenge exponents (slowing verification) or non-canonical
// encodings of the same share.
func challengeOK(g *group.Group, v *big.Int) bool {
	return v != nil && v.Sign() >= 0 && v.BitLen() <= challengeWidth(g)
}

// OpeningProof proves knowledge of (m, r) with C = g^m h^r.
type OpeningProof struct {
	A  *big.Int // announcement g^k1 h^k2
	Z1 *big.Int // k1 + c·m
	Z2 *big.Int // k2 + c·r
}

// ProveOpening proves knowledge of the opening of c.
func ProveOpening(p *commit.Params, c commit.Commitment, o commit.Opening, ctx string, rng io.Reader) (OpeningProof, error) {
	g := p.Group
	k1, err := g.RandScalar(rng)
	if err != nil {
		return OpeningProof{}, err
	}
	k2, err := g.RandScalar(rng)
	if err != nil {
		return OpeningProof{}, err
	}
	a := g.Mul(p.ExpG(k1), p.ExpH(k2))
	ch := openingChallenge(p, c, a, ctx)
	z1 := new(big.Int).Mul(ch, o.M)
	z1.Add(z1, k1)
	z1.Mod(z1, g.Q)
	z2 := new(big.Int).Mul(ch, o.R)
	z2.Add(z2, k2)
	z2.Mod(z2, g.Q)
	return OpeningProof{A: a, Z1: z1, Z2: z2}, nil
}

// VerifyOpening checks an opening-knowledge proof.
func VerifyOpening(p *commit.Params, c commit.Commitment, pr OpeningProof, ctx string) error {
	g := p.Group
	if c.C == nil || !g.Contains(c.C) ||
		pr.A == nil || !g.Contains(pr.A) || !scalarOK(g, pr.Z1) || !scalarOK(g, pr.Z2) {
		return ErrInvalidProof
	}
	ch := openingChallenge(p, c, pr.A, ctx)
	lhs := g.Mul(p.ExpG(pr.Z1), p.ExpH(pr.Z2))
	rhs := g.Mul(pr.A, g.Exp(c.C, ch))
	// Constant-time: verifiers run on attacker-supplied proofs, and an
	// early-exit compare would leak how much of a forgery matched.
	if !ct.BigEqual(lhs, rhs) {
		return ErrInvalidProof
	}
	return nil
}

func openingChallenge(p *commit.Params, c commit.Commitment, a *big.Int, ctx string) *big.Int {
	return challengeScalar(p.Group, "zk/opening", []byte(ctx), p.G.Bytes(), p.H.Bytes(), c.C.Bytes(), a.Bytes())
}

// BitProof proves a commitment hides 0 or 1 via a CDS OR-composition of
// two Schnorr proofs: C = h^r (bit 0) OR C/g = h^r (bit 1). The
// challenge shares split the global challenge by XOR (GF(2)^t secret
// sharing) rather than addition mod Q: either share still uniquely
// determines the other given the global challenge — all CDS needs —
// while both shares stay inside the short challenge space, keeping the
// y^c verification exponents quarter-width.
type BitProof struct {
	A0, A1 *big.Int // per-branch announcements
	C0, C1 *big.Int // per-branch challenges (XOR to the global challenge)
	Z0, Z1 *big.Int // per-branch responses
}

// ProveBit proves c hides a bit, given its opening.
func ProveBit(p *commit.Params, c commit.Commitment, o commit.Opening, ctx string, rng io.Reader) (BitProof, error) {
	g := p.Group
	bit := o.M.Sign()
	if !o.M.IsInt64() || (o.M.Int64() != 0 && o.M.Int64() != 1) {
		return BitProof{}, fmt.Errorf("zk: message %v is not a bit", o.M)
	}
	var proof BitProof
	// Simulate the false branch, run the real protocol on the true branch.
	simC, err := randChallenge(g, rng)
	if err != nil {
		return BitProof{}, err
	}
	simZ, err := g.RandScalar(rng)
	if err != nil {
		return BitProof{}, err
	}
	k, err := g.RandScalar(rng)
	if err != nil {
		return BitProof{}, err
	}
	// The simulated announcement is h^z · y^{-c} for the false branch's
	// statement y: C (bit 0) or C/g (bit 1). y is a group member, so
	// y^{-c} = (y^{-1})^c — one inversion and an exponent as short as the
	// challenge, where Exp(y, -c) reduces -c mod Q to full width.
	yInv := g.Inv(c.C)
	if yInv == nil {
		return BitProof{}, errors.New("zk: commitment has no inverse")
	}
	if bit == 0 {
		yInv = g.Mul(yInv, p.G) // (C/g)^{-1}
	}
	aReal := p.ExpH(k)
	aSim := g.Mul(p.ExpH(simZ), g.Exp(yInv, simC))
	if bit == 0 {
		proof.A0, proof.A1 = aReal, aSim
		proof.C1, proof.Z1 = simC, simZ
	} else {
		proof.A0, proof.A1 = aSim, aReal
		proof.C0, proof.Z0 = simC, simZ
	}
	ch := bitChallenge(p, c, proof.A0, proof.A1, ctx)
	real := new(big.Int).Xor(ch, simC)
	z := new(big.Int).Mul(real, o.R)
	z.Add(z, k)
	z.Mod(z, g.Q)
	if bit == 0 {
		proof.C0, proof.Z0 = real, z
	} else {
		proof.C1, proof.Z1 = real, z
	}
	return proof, nil
}

// verifyBit checks a bit proof over a commitment the caller has already
// membership-checked (verifyRange and the batch verifier check every bit
// commitment themselves). The check matters: a commitment's other
// encoding P − C names the same element and satisfies both branch
// equations, so only Contains keeps one proof to one byte string.
func verifyBit(p *commit.Params, c commit.Commitment, pr BitProof, ctx string) error {
	g := p.Group
	if err := bitShapeCheck(p, pr); err != nil {
		return err
	}
	ch := bitChallenge(p, c, pr.A0, pr.A1, ctx)
	split := new(big.Int).Xor(pr.C0, pr.C1)
	// Constant-time compares of the challenge split and both verification
	// equations (see VerifyOpening).
	if !ct.BigEqual(split, ch) {
		return ErrInvalidProof
	}
	y0 := new(big.Int).Set(c.C)
	y1 := g.Mul(c.C, p.GInv())
	// h^z0 == A0 · y0^c0
	lhs0 := p.ExpH(pr.Z0)
	rhs0 := g.Mul(pr.A0, g.Exp(y0, pr.C0))
	if !ct.BigEqual(lhs0, rhs0) {
		return ErrInvalidProof
	}
	lhs1 := p.ExpH(pr.Z1)
	rhs1 := g.Mul(pr.A1, g.Exp(y1, pr.C1))
	if !ct.BigEqual(lhs1, rhs1) {
		return ErrInvalidProof
	}
	return nil
}

// bitShapeCheck rejects structurally malformed bit proofs before any
// equation is evaluated: announcements must be group elements in their
// one encoding (group.Contains) and all scalars must be canonical Z_Q
// elements (see scalarOK). Shared by
// verifyBit and the batch verifier, which folds equations and therefore
// never re-discovers shape problems on its own.
func bitShapeCheck(p *commit.Params, pr BitProof) error {
	g := p.Group
	if pr.A0 == nil || pr.A1 == nil || !g.Contains(pr.A0) || !g.Contains(pr.A1) {
		return ErrInvalidProof
	}
	if !challengeOK(g, pr.C0) || !challengeOK(g, pr.C1) {
		return ErrInvalidProof
	}
	for _, v := range []*big.Int{pr.Z0, pr.Z1} {
		if !scalarOK(g, v) {
			return ErrInvalidProof
		}
	}
	return nil
}

func bitChallenge(p *commit.Params, c commit.Commitment, a0, a1 *big.Int, ctx string) *big.Int {
	return challengeScalar(p.Group, "zk/bit", []byte(ctx), c.C.Bytes(), a0.Bytes(), a1.Bytes())
}

// maxRangeBits caps a range proof's width: no bound the engines use comes
// near it, and a verifier that derives the width from a public maximum
// still refuses to let that maximum drive unbounded work.
const maxRangeBits = 128

// RangeProof proves a commitment hides a value in [0, max] for a public
// max ≥ 1 (see rangeWeights): one commitment per bit, LSB first, whose
// weighted product is the commitment, and a proof that each hides a bit.
type RangeProof struct {
	Bits      []commit.Commitment // commitments to each bit, LSB first
	BitProofs []BitProof
}

// rangeWeights returns the width n = max.BitLen() of a range proof over
// [0, max] and its top weight. Bit j < n−1 weighs 2^j and bit n−1 weighs
// top = max − 2^(n−1) + 1, which lies in [1, 2^(n−1)]: the weights sum to
// max, so the bits recompose to exactly [0, max]. max = 2^n − 1 gives
// top = 2^(n−1), plain binary. ok is false for max < 1 or a max wider
// than maxRangeBits.
func rangeWeights(max *big.Int) (n int, top *big.Int, ok bool) {
	n = max.BitLen()
	if max.Sign() < 1 || n > maxRangeBits {
		return 0, nil, false
	}
	top = new(big.Int).Lsh(big.NewInt(1), uint(n-1))
	top.Sub(max, top)
	return n, top.Add(top, big.NewInt(1)), true
}

// proveRange proves that c (with opening o) hides a value in [0, max].
// A value of n bits (m ≥ 2^(n−1)) sets the top bit and writes m − top in
// the low n−1 bits; a shorter one is its own binary. The randomness r_j
// of bits 1..n−1 is uniform and r_0 = r − Σ w_j·r_j (w_0 = 1 at every
// width), so the weighted product of the bit commitments is c exactly.
func proveRange(p *commit.Params, c commit.Commitment, o commit.Opening, max *big.Int, ctx string, rng io.Reader) (RangeProof, error) {
	g := p.Group
	n, top, ok := rangeWeights(max)
	if !ok {
		return RangeProof{}, fmt.Errorf("zk: unsupported range [0, %v]", max)
	}
	m := o.M
	if m.Sign() < 0 || m.Cmp(max) > 0 {
		return RangeProof{}, fmt.Errorf("zk: value out of [0, %v]; refusing to prove a false statement", max)
	}
	digits := m // bit j of the decomposition is digits.Bit(j)
	if m.BitLen() == n {
		digits = new(big.Int).Sub(m, top)
		digits.SetBit(digits, n-1, 1)
	}
	rs := make([]*big.Int, n)
	acc := new(big.Int)
	for j := 1; j < n; j++ {
		rj, err := g.RandScalar(rng)
		if err != nil {
			return RangeProof{}, err
		}
		rs[j] = rj
		if j == n-1 {
			acc.Add(acc, new(big.Int).Mul(rj, top))
		} else {
			acc.Add(acc, new(big.Int).Lsh(rj, uint(j)))
		}
	}
	rs[0] = acc.Sub(o.R, acc).Mod(acc, g.Q)
	proof := RangeProof{
		Bits:      make([]commit.Commitment, n),
		BitProofs: make([]BitProof, n),
	}
	for j := 0; j < n; j++ {
		bit := big.NewInt(int64(digits.Bit(j)))
		cj := p.CommitWith(bit, rs[j])
		proof.Bits[j] = cj
		bp, err := ProveBit(p, cj, commit.Opening{M: bit, R: rs[j]}, fmt.Sprintf("%s/bit%d", ctx, j), rng)
		if err != nil {
			return RangeProof{}, err
		}
		proof.BitProofs[j] = bp
	}
	return proof, nil
}

// verifyRange checks that c hides a value in [0, max]. It derives the
// width and the weights from max and never reads them from the proof.
func verifyRange(p *commit.Params, c commit.Commitment, max *big.Int, pr RangeProof, ctx string) error {
	n, top, ok := rangeWeights(max)
	if !ok || len(pr.Bits) != n || len(pr.BitProofs) != n {
		return ErrInvalidProof
	}
	// The bit commitments must be well-formed and their weighted product
	// must equal the target commitment exactly. Constant-time: the
	// recomposition check runs on attacker-supplied bit commitments (see
	// VerifyOpening).
	recomposed, ok := recompose(p.Group, pr.Bits, top)
	if !ok || !ct.BigEqual(recomposed, c.C) {
		return ErrInvalidProof
	}
	for j := 0; j < n; j++ {
		if err := verifyBit(p, pr.Bits[j], pr.BitProofs[j], fmt.Sprintf("%s/bit%d", ctx, j)); err != nil {
			return ErrInvalidProof
		}
	}
	return nil
}

// recompose checks that every bit commitment (LSB first, at least one)
// is a group member and returns the weighted product
// Π_{j<n−1} bits[j]^(2^j) · bits[n−1]^top: Horner's rule over the low
// n−1 bits (acc ← acc²·bits[j] from bit n−2 down, n−2 squarings and
// n−2 products) and one exponentiation by top, at most n bits, for the
// top bit. ok is false if any commitment is nil or a non-member.
func recompose(g *group.Group, bits []commit.Commitment, top *big.Int) (product *big.Int, ok bool) {
	for _, b := range bits {
		if b.C == nil || !g.Contains(b.C) {
			return nil, false
		}
	}
	n := len(bits)
	product = g.Exp(bits[n-1].C, top)
	if n == 1 {
		return product, true
	}
	acc := bits[n-2].C
	for j := n - 3; j >= 0; j-- {
		acc = g.Mul(g.Mul(acc, acc), bits[j].C)
	}
	return g.Mul(product, acc), true
}

// BoundProof proves a commitment hides a value v with 0 <= v <= B for a
// public bound B. For B ≥ 1 it is one range proof over exactly [0, B]
// in Low, with High empty. Bound 0 has no non-zero weight to decompose
// into, so its proof is two one-bit range proofs: v ∈ [0, 1] in Low and
// 0 − v ∈ [0, 1] in High (whose commitment anyone derives
// homomorphically from c), which together leave v = 0.
type BoundProof struct {
	NBits int
	Low   RangeProof // v in [0, B]; v in [0, 1] at B = 0
	High  RangeProof // empty; 0 − v in [0, 1] at B = 0
}

// boundWidth returns the bit width needed to cover [0, B].
func boundWidth(b *big.Int) int {
	n := b.BitLen()
	if n == 0 {
		n = 1
	}
	return n
}

// boundRange returns the maximum of the range proof(s) a bound proof
// for b carries, and whether it has a High side: [0, b] alone for
// b ≥ 1, and [0, 1] on both sides for b = 0.
func boundRange(b *big.Int) (max *big.Int, high bool) {
	if b.Sign() == 0 {
		return big.NewInt(1), true
	}
	return b, false
}

// ProveBound proves 0 <= v <= B for the value committed in c.
func ProveBound(p *commit.Params, c commit.Commitment, o commit.Opening, bound *big.Int, ctx string, rng io.Reader) (BoundProof, error) {
	if bound == nil {
		return BoundProof{}, errors.New("zk: nil bound")
	}
	if bound.Sign() < 0 {
		return BoundProof{}, errors.New("zk: negative bound")
	}
	if o.M.Sign() < 0 || o.M.Cmp(bound) > 0 {
		return BoundProof{}, errors.New("zk: value violates bound; refusing to prove a false statement")
	}
	max, twoSided := boundRange(bound)
	low, err := proveRange(p, c, o, max, ctx+"/low", rng)
	if err != nil {
		return BoundProof{}, err
	}
	pr := BoundProof{NBits: boundWidth(bound), Low: low}
	if !twoSided {
		return pr, nil
	}
	// Commitment to B - v: CommitPublic(B) / c, opening (B - m, -r).
	cHigh := p.Sub(p.CommitPublic(bound), c)
	oHigh := commit.Opening{
		M: new(big.Int).Sub(bound, o.M),
		R: new(big.Int).Mod(new(big.Int).Neg(o.R), p.Group.Q),
	}
	if pr.High, err = proveRange(p, cHigh, oHigh, max, ctx+"/high", rng); err != nil {
		return BoundProof{}, err
	}
	return pr, nil
}

// VerifyBound checks that c hides a value in [0, bound].
func VerifyBound(p *commit.Params, c commit.Commitment, bound *big.Int, pr BoundProof, ctx string) error {
	if bound == nil || bound.Sign() < 0 || pr.NBits != boundWidth(bound) {
		return ErrInvalidProof
	}
	max, twoSided := boundRange(bound)
	if !twoSided && (len(pr.High.Bits) != 0 || len(pr.High.BitProofs) != 0) {
		return ErrInvalidProof
	}
	if err := verifyRange(p, c, max, pr.Low, ctx+"/low"); err != nil {
		return ErrInvalidProof
	}
	if !twoSided {
		return nil
	}
	cHigh := p.Sub(p.CommitPublic(bound), c)
	if err := verifyRange(p, cHigh, max, pr.High, ctx+"/high"); err != nil {
		return ErrInvalidProof
	}
	return nil
}
