// Package zk implements non-interactive zero-knowledge proofs from
// Σ-protocols compiled with the Fiat–Shamir transform. It is PReVer's
// substitute for zk-SNARKs in Research Challenges 1 and 4: an untrusted
// data manager (or a data owner submitting a private update) proves that a
// hidden value satisfies a constraint — without revealing the value.
//
// Provided proofs, all over Pedersen commitments in a Schnorr group:
//
//   - ProveOpening / VerifyOpeningBatch: knowledge of (m, r) opening C.
//   - ProveBound / VerifyBoundBatch: a commitment hides a value in
//     [0, B], as one range proof over exactly [0, B]: base-4 digits of
//     weight 4^j and one top digit whose public value set is chosen so
//     the digits cover exactly [0, B], a CDS OR proof per digit
//     commitment (one branch per value) and a homomorphic recomposition.
//     VerifyBound is VerifyBoundBatch of one.
//
// Every proof is verified the one way batch.go describes: its equations
// fold under random coefficients into one multi-exponentiation, whether
// it comes alone or with others. All proofs are bound to a
// caller-supplied context string so a proof for one update cannot be
// replayed for another.
package zk

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"

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
// exponentiation (the prover's y^c, the fold's D^{Σρ·c} terms) at
// quarter or half width instead of full group-order width.
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
// space; digitBranches insists on it so a cheating prover cannot smuggle in
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

func openingChallenge(p *commit.Params, c commit.Commitment, a *big.Int, ctx string) *big.Int {
	return challengeScalar(p.Group, "zk/opening", []byte(ctx), p.G.Bytes(), p.H.Bytes(), c.C.Bytes(), a.Bytes())
}

// BitProof is one record of a digit's OR proof: two branches, each an
// announcement, a challenge share and a response. A digit commitment D
// hiding one of k public values t_0, …, t_{k−1} (k = 2 or 4) proves it
// by a CDS OR-composition of k Schnorr proofs, branch i showing
// D/g^{t_i} = h^r, and carries k/2 records, branches 2i and 2i+1 in
// record i: a two-value digit is one record (at the values {0, 1}, a bit
// proof), a four-value digit two. The challenge shares of all k branches
// split the digit's Fiat–Shamir hash by XOR (GF(2)^t secret sharing)
// rather than by addition mod Q: any k − 1 shares and the hash still
// determine the last one — all CDS needs — while every share stays
// inside the short challenge space, keeping the y^c verification
// exponents quarter-width. The type keeps the bit proof's name because
// a benchmark reads these fields by name (ROADMAP 3(k)).
type BitProof struct {
	A0, A1 *big.Int // announcements of branches 2i and 2i+1
	C0, C1 *big.Int // their challenge shares
	Z0, Z1 *big.Int // their responses
}

// quaternary is a base-4 digit's value set.
var quaternary = []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(3)}

// proveDigit proves that c hides one of values (two or four of them, in
// ascending order), given its opening, and returns the digit's records.
// The first branch whose value is o.M runs the real protocol; every
// other branch is simulated, its challenge share and response drawn in
// branch order before the real branch's nonce. A simulated announcement
// is h^z · y^{-c} for the branch's statement y = c/g^t, and y^{-c} =
// (c^{-1}·g^t)^c: one inversion of c serves every branch, and each
// exponent is as short as a challenge, where Exp(y, -c) would reduce -c
// mod Q to full width.
func proveDigit(p *commit.Params, c commit.Commitment, o commit.Opening, values []*big.Int, ctx string, rng io.Reader) ([]BitProof, error) {
	g := p.Group
	real := slices.IndexFunc(values, func(t *big.Int) bool { return t.Cmp(o.M) == 0 })
	if real < 0 {
		return nil, fmt.Errorf("zk: message %v is not among the digit's values", o.M)
	}
	cInv := g.Inv(c.C)
	if cInv == nil {
		return nil, errors.New("zk: commitment has no inverse")
	}
	k := len(values)
	as, cs, zs := make([]*big.Int, k), make([]*big.Int, k), make([]*big.Int, k)
	split := new(big.Int) // the simulated shares' XOR
	for i, t := range values {
		if i == real {
			continue
		}
		ci, err := randChallenge(g, rng)
		if err != nil {
			return nil, err
		}
		zi, err := g.RandScalar(rng)
		if err != nil {
			return nil, err
		}
		yInv := cInv
		if t.Sign() != 0 {
			yInv = g.Mul(cInv, g.Exp(p.G, t))
		}
		as[i] = g.Mul(p.ExpH(zi), g.Exp(yInv, ci))
		cs[i], zs[i] = ci, zi
		split.Xor(split, ci)
	}
	nonce, err := g.RandScalar(rng)
	if err != nil {
		return nil, err
	}
	as[real] = p.ExpH(nonce)
	cs[real] = split.Xor(split, digitChallenge(p, c, as, ctx))
	z := new(big.Int).Mul(cs[real], o.R)
	zs[real] = z.Add(z, nonce).Mod(z, g.Q)
	recs := make([]BitProof, k/2)
	for i := range recs {
		recs[i] = BitProof{
			A0: as[2*i], A1: as[2*i+1],
			C0: cs[2*i], C1: cs[2*i+1],
			Z0: zs[2*i], Z1: zs[2*i+1],
		}
	}
	return recs, nil
}

// digitChallenge is a digit's Fiat–Shamir hash over the context, the
// commitment and every branch's announcement in branch order; with two
// branches it is the bit proof's hash.
func digitChallenge(p *commit.Params, c commit.Commitment, as []*big.Int, ctx string) *big.Int {
	parts := [][]byte{[]byte(ctx), c.C.Bytes()}
	for _, a := range as {
		parts = append(parts, a.Bytes())
	}
	return challengeScalar(p.Group, "zk/bit", parts...)
}

// digitBranches rejects structurally malformed digit proofs before any
// equation is evaluated: a digit of k values carries k/2 records, its
// announcements must be group elements in their one encoding
// (group.Contains), its challenge shares must lie in the challenge space
// and its responses must be canonical Z_Q elements (see scalarOK). It
// returns the branches' announcements, challenge shares and responses in
// branch order. The fold checks equations only, so it never
// re-discovers shape problems on its own.
func digitBranches(p *commit.Params, k int, recs []BitProof) (as, cs, zs []*big.Int, ok bool) {
	g := p.Group
	if len(recs) != k/2 {
		return nil, nil, nil, false
	}
	as, cs, zs = make([]*big.Int, 0, k), make([]*big.Int, 0, k), make([]*big.Int, 0, k)
	for _, r := range recs {
		as = append(as, r.A0, r.A1)
		cs = append(cs, r.C0, r.C1)
		zs = append(zs, r.Z0, r.Z1)
	}
	for i := range as {
		if as[i] == nil || !g.Contains(as[i]) || !challengeOK(g, cs[i]) || !scalarOK(g, zs[i]) {
			return nil, nil, nil, false
		}
	}
	return as, cs, zs, true
}

// splitOK reports whether a digit's challenge shares XOR to its
// Fiat–Shamir hash. Constant-time, as every verifier comparison is: a
// verifier runs on attacker-supplied proofs, and an early-exit compare
// would leak how much of a forgery matched.
func splitOK(p *commit.Params, c commit.Commitment, as, cs []*big.Int, ctx string) bool {
	split := new(big.Int)
	for _, ci := range cs {
		split.Xor(split, ci)
	}
	return ct.BigEqual(split, digitChallenge(p, c, as, ctx))
}

// maxRangeBits caps a range proof's width: no bound the engines use comes
// near it, and a verifier that derives the width from a public maximum
// still refuses to let that maximum drive unbounded work.
const maxRangeBits = 128

// RangeProof proves a commitment hides a value in [0, max] for a public
// max ≥ 1 (see rangeDigits). Bits holds one commitment per digit, the
// base-4 digits LSB first and then the top digit, whose weighted product
// is the commitment; BitProofs holds every digit's OR-proof records (see
// BitProof), digit after digit. The fields keep a bit decomposition's
// names because a benchmark reads them by name (ROADMAP 3(k)).
type RangeProof struct {
	Bits      []commit.Commitment // digit commitments: base-4 digits LSB first, then the top digit
	BitProofs []BitProof          // each digit's records, in digit order
}

// rangeDigits returns the value set of each digit of a range proof over
// [0, max], in digit order: m = ⌊log₄ max⌋ base-4 digits, digit j of
// weight 4^j with the values {0, 1, 2, 3}, which cover [0, 4^m − 1],
// then a top digit of weight 1 whose values T make the whole cover
// exactly [0, max]. With R = max − 4^m + 1 ∈ [1, 3·4^m], T = {0, R} when
// R ≤ 4^m, else {0, ⌈R/3⌉, ⌈2R/3⌉, R}. Consecutive values of T lie at
// most 4^m apart, so every v ∈ [0, max] is some t ∈ T plus a value of
// the base digits, and R + 4^m − 1 = max is the largest sum. max =
// 4^(m+1) − 1 gives T = {0, 4^m, 2·4^m, 3·4^m}, plain base 4; max = 2
// gives T = {0, 1, 2, 2}, whose repeated value an OR proof allows. ok
// is false for max < 1 or a max wider than maxRangeBits.
func rangeDigits(max *big.Int) (sets [][]*big.Int, ok bool) {
	if max.Sign() < 1 || max.BitLen() > maxRangeBits {
		return nil, false
	}
	m := (max.BitLen() - 1) / 2
	pow := new(big.Int).Lsh(big.NewInt(1), uint(2*m))
	r := new(big.Int).Sub(max, pow)
	r.Add(r, big.NewInt(1))
	top := []*big.Int{big.NewInt(0), r}
	if r.Cmp(pow) > 0 {
		third := func(k int64) *big.Int { // ⌈k·R/3⌉
			t := new(big.Int).Mul(r, big.NewInt(k))
			return t.Quo(t.Add(t, big.NewInt(2)), big.NewInt(3))
		}
		top = []*big.Int{big.NewInt(0), third(1), third(2), r}
	}
	sets = make([][]*big.Int, m+1)
	for j := 0; j < m; j++ {
		sets[j] = quaternary
	}
	sets[m] = top
	return sets, true
}

// recordCount is the number of BitProof records a range proof with the
// digit value sets sets carries.
func recordCount(sets [][]*big.Int) int {
	n := 0
	for _, s := range sets {
		n += len(s) / 2
	}
	return n
}

// digitContext binds digit j's OR proof to the range proof's context.
func digitContext(ctx string, j int) string { return fmt.Sprintf("%s/bit%d", ctx, j) }

// proveRange proves that c (with opening o) hides a value v in [0, max]
// (see rangeDigits). The top digit takes the largest t ∈ T with t ≤ v,
// and the base digits write v − t ≤ 4^m − 1 in base 4. The randomness
// r_j of digits 1..m is uniform and r_0 = r − Σ w_j·r_j (w_j = 4^j for a
// base digit, 1 for the top one; digit 0 weighs 1 whether it is a base
// digit or, at m = 0, the top one), so the weighted product of the digit
// commitments is c exactly.
func proveRange(p *commit.Params, c commit.Commitment, o commit.Opening, max *big.Int, ctx string, rng io.Reader) (RangeProof, error) {
	g := p.Group
	sets, ok := rangeDigits(max)
	if !ok {
		return RangeProof{}, fmt.Errorf("zk: unsupported range [0, %v]", max)
	}
	v := o.M
	if v.Sign() < 0 || v.Cmp(max) > 0 {
		return RangeProof{}, fmt.Errorf("zk: value out of [0, %v]; refusing to prove a false statement", max)
	}
	m := len(sets) - 1
	digits := make([]*big.Int, m+1)
	for _, t := range sets[m] { // ascending: the last t ≤ v is the largest
		if t.Cmp(v) <= 0 {
			digits[m] = t
		}
	}
	rest := new(big.Int).Sub(v, digits[m])
	for j := 0; j < m; j++ {
		digits[j] = big.NewInt(int64(rest.Bit(2*j+1)<<1 | rest.Bit(2*j)))
	}
	rs := make([]*big.Int, m+1)
	acc := new(big.Int)
	for j := 1; j <= m; j++ {
		rj, err := g.RandScalar(rng)
		if err != nil {
			return RangeProof{}, err
		}
		rs[j] = rj
		if j == m {
			acc.Add(acc, rj)
		} else {
			acc.Add(acc, new(big.Int).Lsh(rj, uint(2*j)))
		}
	}
	rs[0] = acc.Sub(o.R, acc).Mod(acc, g.Q)
	proof := RangeProof{
		Bits:      make([]commit.Commitment, m+1),
		BitProofs: make([]BitProof, 0, recordCount(sets)),
	}
	for j, set := range sets {
		dj := p.CommitWith(digits[j], rs[j])
		proof.Bits[j] = dj
		recs, err := proveDigit(p, dj, commit.Opening{M: digits[j], R: rs[j]}, set, digitContext(ctx, j), rng)
		if err != nil {
			return RangeProof{}, err
		}
		proof.BitProofs = append(proof.BitProofs, recs...)
	}
	return proof, nil
}

// recompose checks that every digit commitment (base-4 digits LSB first,
// then the top digit; at least one) is a group member and returns the
// weighted product Π_{j<m} D_j^(4^j) · D_m: base-4 Horner over the base
// digits (acc ← acc⁴·D_j from digit m−2 down, two squarings and a
// product each) times the top digit. ok is false if any commitment is
// nil or a non-member.
func recompose(g *group.Group, digits []commit.Commitment) (product *big.Int, ok bool) {
	for _, d := range digits {
		if d.C == nil || !g.Contains(d.C) {
			return nil, false
		}
	}
	m := len(digits) - 1
	if m == 0 {
		return digits[0].C, true
	}
	acc := digits[m-1].C
	for j := m - 2; j >= 0; j-- {
		sq := g.Mul(acc, acc)
		acc = g.Mul(g.Mul(sq, sq), digits[j].C)
	}
	return g.Mul(acc, digits[m].C), true
}

// BoundProof proves a commitment hides a value v with 0 <= v <= B for a
// public bound B. For B ≥ 1 it is one range proof over exactly [0, B]
// in Low (base-4 digits and a top digit, see rangeDigits), with High
// empty. Bound 0 has no non-zero weight to decompose into, so its proof
// is two one-bit range proofs: v ∈ [0, 1] in Low and 0 − v ∈ [0, 1] in
// High (whose commitment anyone derives homomorphically from c), which
// together leave v = 0. NBits is B's bit width, which both verifiers
// derive from B and compare.
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

// VerifyBound checks that c hides a value in [0, bound]: it is
// VerifyBoundBatch of one. The error is ErrInvalidProof for a refused
// proof, or the batch's operational error.
func VerifyBound(p *commit.Params, c commit.Commitment, bound *big.Int, pr BoundProof, ctx string) error {
	errs, err := VerifyBoundBatch(p, []commit.Commitment{c}, bound, []BoundProof{pr}, []string{ctx}, nil)
	if err != nil {
		return err
	}
	return errs[0]
}
