// Package zk implements non-interactive zero-knowledge proofs from
// Σ-protocols compiled with the Fiat–Shamir transform. It is PReVer's
// substitute for zk-SNARKs in Research Challenges 1 and 4: an untrusted
// data manager (or a data owner submitting a private update) proves that a
// hidden value satisfies a constraint — without revealing the value.
//
// Provided proofs, all over Pedersen commitments in a Schnorr group:
//
//   - ProveDlog / VerifyDlog: knowledge of x with y = base^x (Schnorr).
//   - ProveOpening / VerifyOpening: knowledge of (m, r) opening C.
//   - ProveEqual / VerifyEqual: two commitments hide the same message.
//   - ProveBit / VerifyBit: a commitment hides 0 or 1 (CDS OR-composition).
//   - ProveRange / VerifyRange: a commitment hides a value in [0, 2^n)
//     (bit decomposition + per-bit proofs + homomorphic recomposition).
//   - ProveBound / VerifyBound: a commitment hides a value in [0, B]
//     (two range proofs: v >= 0 and B - v >= 0).
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
// space; VerifyBit insists on it so a cheating prover cannot smuggle in
// full-width challenge exponents (slowing verification) or non-canonical
// encodings of the same share.
func challengeOK(g *group.Group, v *big.Int) bool {
	return v != nil && v.Sign() >= 0 && v.BitLen() <= challengeWidth(g)
}

// DlogProof is a Schnorr proof of knowledge of x such that y = base^x.
type DlogProof struct {
	A *big.Int // announcement base^k
	Z *big.Int // response k + c·x mod q
}

// ProveDlog proves knowledge of x with y = base^x in g's prime-order group.
func ProveDlog(g *group.Group, base, y, x *big.Int, ctx string, rng io.Reader) (DlogProof, error) {
	return proveDlogWith(g, func(e *big.Int) *big.Int { return g.Exp(base, e) }, base, y, x, ctx, rng)
}

// proveDlogWith is ProveDlog with a caller-supplied exponentiation for
// the (fixed) base, so callers with a precomputed window table (the
// equality proof's h) skip the square-and-multiply ladder.
func proveDlogWith(g *group.Group, expBase func(*big.Int) *big.Int, base, y, x *big.Int, ctx string, rng io.Reader) (DlogProof, error) {
	k, err := g.RandScalar(rng)
	if err != nil {
		return DlogProof{}, err
	}
	a := expBase(k)
	c := dlogChallenge(g, base, y, a, ctx)
	z := new(big.Int).Mul(c, x)
	z.Add(z, k)
	z.Mod(z, g.Q)
	return DlogProof{A: a, Z: z}, nil
}

// VerifyDlog checks a Schnorr proof. The statement y must be a group
// member: 0 and P have no witness to know, and P − y is y's element in
// an encoding no honest prover produces.
func VerifyDlog(g *group.Group, base, y *big.Int, p DlogProof, ctx string) error {
	if y == nil || !g.Contains(y) {
		return ErrInvalidProof
	}
	return verifyDlogWith(g, func(e *big.Int) *big.Int { return g.Exp(base, e) }, base, y, p, ctx)
}

// verifyDlogWith is VerifyDlog over a statement the caller has already
// membership-checked, with the base exponentiation of proveDlogWith.
func verifyDlogWith(g *group.Group, expBase func(*big.Int) *big.Int, base, y *big.Int, p DlogProof, ctx string) error {
	if p.A == nil || !g.Contains(p.A) || !scalarOK(g, p.Z) {
		return ErrInvalidProof
	}
	c := dlogChallenge(g, base, y, p.A, ctx)
	lhs := expBase(p.Z)
	rhs := g.Mul(p.A, g.Exp(y, c))
	// Constant-time: verifiers run on attacker-supplied proofs, and an
	// early-exit compare would leak how much of a forgery matched.
	if !ct.BigEqual(lhs, rhs) {
		return ErrInvalidProof
	}
	return nil
}

func dlogChallenge(g *group.Group, base, y, a *big.Int, ctx string) *big.Int {
	return challengeScalar(g, "zk/dlog", []byte(ctx), base.Bytes(), y.Bytes(), a.Bytes())
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
	// Constant-time compare of verification equation (see VerifyDlog).
	if !ct.BigEqual(lhs, rhs) {
		return ErrInvalidProof
	}
	return nil
}

func openingChallenge(p *commit.Params, c commit.Commitment, a *big.Int, ctx string) *big.Int {
	return challengeScalar(p.Group, "zk/opening", []byte(ctx), p.G.Bytes(), p.H.Bytes(), c.C.Bytes(), a.Bytes())
}

// EqualProof proves two commitments hide the same message: it is a Schnorr
// proof of knowledge of log_h(C1/C2) = r1 - r2, which exists exactly when
// the g-exponents agree.
type EqualProof struct {
	Proof DlogProof
}

// ProveEqual proves c1 and c2 commit to the same message, given both
// openings.
func ProveEqual(p *commit.Params, c1, c2 commit.Commitment, o1, o2 commit.Opening, ctx string, rng io.Reader) (EqualProof, error) {
	mm1 := new(big.Int).Mod(o1.M, p.Group.Q)
	mm2 := new(big.Int).Mod(o2.M, p.Group.Q)
	if mm1.Cmp(mm2) != 0 {
		return EqualProof{}, errors.New("zk: messages differ; refusing to prove a false statement")
	}
	y := p.Group.Div(c1.C, c2.C)
	x := new(big.Int).Sub(o1.R, o2.R)
	x.Mod(x, p.Group.Q)
	pr, err := proveDlogWith(p.Group, p.ExpH, p.H, y, x, equalCtx(c1, c2, ctx), rng)
	if err != nil {
		return EqualProof{}, err
	}
	return EqualProof{Proof: pr}, nil
}

// VerifyEqual checks an equality proof. Both commitments must be group
// members: each commitment has one encoding in [1, Q], and a
// non-invertible c2 (0, P) has no quotient at all.
func VerifyEqual(p *commit.Params, c1, c2 commit.Commitment, pr EqualProof, ctx string) error {
	if c1.C == nil || c2.C == nil || !p.Group.Contains(c1.C) || !p.Group.Contains(c2.C) {
		return ErrInvalidProof
	}
	y := p.Group.Div(c1.C, c2.C)
	return verifyDlogWith(p.Group, p.ExpH, p.H, y, pr.Proof, equalCtx(c1, c2, ctx))
}

// equalCtx binds an equality proof to BOTH commitments, not just the
// quotient statement the inner dlog proof sees. Without it a proof for
// (c1, c2) replays against any pair with the same quotient — e.g.
// (c1·t, c2·t) for arbitrary t — silently "proving" equality of
// commitments the prover never opened. Hex encoding with "/" separators
// keeps the binding unambiguous.
func equalCtx(c1, c2 commit.Commitment, ctx string) string {
	return fmt.Sprintf("equal/%x/%x/%s", c1.C, c2.C, ctx)
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

// VerifyBit checks a bit proof. The commitment must be a group member:
// its other encoding P − C names the same element and satisfies both
// branch equations, so only Contains keeps one proof to one byte string.
func VerifyBit(p *commit.Params, c commit.Commitment, pr BitProof, ctx string) error {
	if c.C == nil || !p.Group.Contains(c.C) {
		return ErrInvalidProof
	}
	return verifyBit(p, c, pr, ctx)
}

// verifyBit is VerifyBit over a commitment the caller has already
// membership-checked (VerifyRange and the batch verifiers check every bit
// commitment themselves).
func verifyBit(p *commit.Params, c commit.Commitment, pr BitProof, ctx string) error {
	g := p.Group
	if err := bitShapeCheck(p, pr); err != nil {
		return err
	}
	ch := bitChallenge(p, c, pr.A0, pr.A1, ctx)
	split := new(big.Int).Xor(pr.C0, pr.C1)
	// Constant-time compares of the challenge split and both verification
	// equations (see VerifyDlog).
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
// VerifyBit and the batch verifier, which folds equations and therefore
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

// RangeProof proves a commitment hides a value in [0, 2^n).
type RangeProof struct {
	Bits      []commit.Commitment // commitments to each bit, LSB first
	BitProofs []BitProof
}

// NBits returns the bit width the proof covers.
func (r RangeProof) NBits() int { return len(r.Bits) }

// ProveRange proves that c (with opening o) hides a value in [0, 2^n). The
// prover decomposes the message into bits, commits to each with randomness
// chosen so the weighted product of bit commitments equals c exactly, and
// proves each commitment is a bit.
func ProveRange(p *commit.Params, c commit.Commitment, o commit.Opening, nBits int, ctx string, rng io.Reader) (RangeProof, error) {
	g := p.Group
	if nBits < 1 || nBits > 128 {
		return RangeProof{}, fmt.Errorf("zk: unsupported range width %d", nBits)
	}
	m := o.M
	if m.Sign() < 0 || m.BitLen() > nBits {
		return RangeProof{}, fmt.Errorf("zk: value out of [0, 2^%d); refusing to prove a false statement", nBits)
	}
	proof := RangeProof{
		Bits:      make([]commit.Commitment, nBits),
		BitProofs: make([]BitProof, nBits),
	}
	// Choose randomness r_i for bits 1..n-1 freely, then solve for r_0 so
	// that sum(2^i · r_i) == o.R (mod q): the weighted product of bit
	// commitments then equals c with no extra terms.
	rs := make([]*big.Int, nBits)
	acc := new(big.Int)
	for i := 1; i < nBits; i++ {
		ri, err := g.RandScalar(rng)
		if err != nil {
			return RangeProof{}, err
		}
		rs[i] = ri
		weighted := new(big.Int).Lsh(ri, uint(i))
		acc.Add(acc, weighted)
	}
	r0 := new(big.Int).Sub(o.R, acc)
	r0.Mod(r0, g.Q)
	rs[0] = r0
	for i := 0; i < nBits; i++ {
		bit := big.NewInt(int64(m.Bit(i)))
		ci := p.CommitWith(bit, rs[i])
		proof.Bits[i] = ci
		bp, err := ProveBit(p, ci, commit.Opening{M: bit, R: rs[i]}, fmt.Sprintf("%s/bit%d", ctx, i), rng)
		if err != nil {
			return RangeProof{}, err
		}
		proof.BitProofs[i] = bp
	}
	return proof, nil
}

// VerifyRange checks that c hides a value in [0, 2^nBits).
func VerifyRange(p *commit.Params, c commit.Commitment, nBits int, pr RangeProof, ctx string) error {
	// The width cap mirrors ProveRange: no honest proof exceeds 128 bits,
	// and bounding it here keeps attacker-chosen nBits from driving
	// unbounded verification work.
	if len(pr.Bits) != nBits || len(pr.BitProofs) != nBits || nBits < 1 || nBits > 128 {
		return ErrInvalidProof
	}
	// The bit commitments must be well-formed and their weighted product
	// must equal the target commitment exactly. Constant-time: the
	// recomposition check runs on attacker-supplied bit commitments (see
	// VerifyDlog).
	recomposed, ok := recompose(p.Group, pr.Bits)
	if !ok || !ct.BigEqual(recomposed, c.C) {
		return ErrInvalidProof
	}
	// Each bit commitment must prove to a bit.
	for i := 0; i < nBits; i++ {
		if err := verifyBit(p, pr.Bits[i], pr.BitProofs[i], fmt.Sprintf("%s/bit%d", ctx, i)); err != nil {
			return ErrInvalidProof
		}
	}
	return nil
}

// recompose checks that every bit commitment (LSB first, at least one)
// is a group member and returns the weighted product Π bits[j]^(2^j)
// by Horner's rule from the top bit down — acc ← acc²·bits[j], n−1
// squarings and n−1 products for n bits. ok is false if any commitment
// is nil or a non-member.
func recompose(g *group.Group, bits []commit.Commitment) (product *big.Int, ok bool) {
	for _, b := range bits {
		if b.C == nil || !g.Contains(b.C) {
			return nil, false
		}
	}
	acc := bits[len(bits)-1].C
	for j := len(bits) - 2; j >= 0; j-- {
		acc = g.Mul(g.Mul(acc, acc), bits[j].C)
	}
	return acc, true
}

// BoundProof proves a commitment hides a value v with 0 <= v <= B for a
// public bound B: a range proof on v and a range proof on B - v (whose
// commitment anyone derives homomorphically from c and B).
type BoundProof struct {
	NBits int
	Low   RangeProof // v in [0, 2^n)
	High  RangeProof // B - v in [0, 2^n)
}

// boundWidth returns the bit width needed to cover [0, B].
func boundWidth(b *big.Int) int {
	n := b.BitLen()
	if n == 0 {
		n = 1
	}
	return n
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
	n := boundWidth(bound)
	low, err := ProveRange(p, c, o, n, ctx+"/low", rng)
	if err != nil {
		return BoundProof{}, err
	}
	// Commitment to B - v: CommitPublic(B) / c, opening (B - m, -r).
	cHigh := p.Sub(p.CommitPublic(bound), c)
	oHigh := commit.Opening{
		M: new(big.Int).Sub(bound, o.M),
		R: new(big.Int).Mod(new(big.Int).Neg(o.R), p.Group.Q),
	}
	high, err := ProveRange(p, cHigh, oHigh, n, ctx+"/high", rng)
	if err != nil {
		return BoundProof{}, err
	}
	return BoundProof{NBits: n, Low: low, High: high}, nil
}

// VerifyBound checks that c hides a value in [0, bound].
func VerifyBound(p *commit.Params, c commit.Commitment, bound *big.Int, pr BoundProof, ctx string) error {
	if bound == nil || bound.Sign() < 0 || pr.NBits != boundWidth(bound) {
		return ErrInvalidProof
	}
	if err := VerifyRange(p, c, pr.NBits, pr.Low, ctx+"/low"); err != nil {
		return ErrInvalidProof
	}
	cHigh := p.Sub(p.CommitPublic(bound), c)
	if err := VerifyRange(p, cHigh, pr.NBits, pr.High, ctx+"/high"); err != nil {
		return ErrInvalidProof
	}
	return nil
}
