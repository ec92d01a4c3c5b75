// Batch verification: fold N Σ-proof verification equations into one
// multi-exponentiation with random-linear-combination (RLC)
// coefficients.
//
// A verification equation has the form lhs_i == rhs_i in the group.
// Raising each side to a fresh random coefficient ρ_i and multiplying,
// Π lhs_i^{ρ_i} == Π rhs_i^{ρ_i} holds whenever every proof is valid;
// conversely, if any single equation fails, the folded equation holds
// with probability at most 1/#coefficients over the verifier's choice
// of ρ (view the fold as a nonzero polynomial in ρ_i evaluated at a
// random point — Schwartz–Zippel). Coefficients are drawn from
// crypto/rand with ≥128 bits (rlcBits), so a cheating prover's survival
// chance is 2^-128: the prover commits to the proofs BEFORE the
// verifier samples ρ, and smaller coefficients would shrink soundness
// to their bit length. The fold itself is one simultaneous multi-exp
// (group.MultiExp) plus two fixed-base exponentiations, which is where
// the batch speedup comes from: MultiExp's Bos–Coster chain spends ≈ 27
// modular multiplications per term on the engine's 288-term bit fold
// (≈ 50 µs at MODP2048) and fewer as the batch grows, where a windowed
// exponentiation of its own costs each term 160 (128-bit) to 320
// (257-bit).
//
// On batch failure the verifier bisects with fresh coefficients per
// half, so error reporting stays per-proof: callers learn exactly which
// indices failed, at O(log N) extra folded checks per offender.
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

// rlcBits is the bit length of the random-linear-combination
// coefficients; it is the batch verifier's soundness parameter.
const rlcBits = 128

var errBatchLength = errors.New("zk: batch slice lengths differ")

// sampleCoeffs draws n RLC coefficients uniform in [1, 2^rlcBits),
// clamped below the group order for small (test) groups. rng defaults
// to crypto/rand.Reader; the coefficients are the verifier's private
// randomness, so they must never come from a seedable PRNG.
func sampleCoeffs(g *group.Group, n int, rng io.Reader) ([]*big.Int, error) {
	if rng == nil {
		rng = rand.Reader
	}
	max := new(big.Int).Lsh(big.NewInt(1), rlcBits)
	if max.Cmp(g.Q) > 0 {
		max = g.Q
	}
	bound := new(big.Int).Sub(max, big.NewInt(1))
	out := make([]*big.Int, n)
	for i := range out {
		r, err := rand.Int(rng, bound)
		if err != nil {
			return nil, err
		}
		out[i] = r.Add(r, big.NewInt(1)) // uniform in [1, max)
	}
	return out, nil
}

// batchCheck verifies the proofs at idx with one folded check. On fold
// failure it bisects (fresh coefficients per half) until the offenders
// are isolated; a singleton falls through to the direct per-proof
// verifier so errs[i] carries the same error the sequential path would
// have reported. A valid batch costs one fold; a batch with k bad
// proofs costs O(k·log n) extra folds. The returned error is
// operational (rng failure), never a verification verdict.
func batchCheck(idx []int, errs []error, folded func([]int) (bool, error), single func(int) error) error {
	switch len(idx) {
	case 0:
		return nil
	case 1:
		errs[idx[0]] = single(idx[0])
		return nil
	}
	ok, err := folded(idx)
	if err != nil {
		return err
	}
	if ok {
		return nil
	}
	mid := len(idx) / 2
	if err := batchCheck(idx[:mid], errs, folded, single); err != nil {
		return err
	}
	return batchCheck(idx[mid:], errs, folded, single)
}

// VerifyOpeningBatch checks N opening proofs with one folded equation:
//
//	g^{Σρ_i·z1_i} · h^{Σρ_i·z2_i} == Π A_i^{ρ_i} · Π C_i^{ρ_i·c_i}
//
// It returns one error slot per proof (nil = valid) plus an operational
// error (length mismatch, rng failure) that voids the whole call.
// Structurally malformed proofs are rejected before folding; a proof
// that fails the folded check is pinpointed by bisection.
func VerifyOpeningBatch(p *commit.Params, cs []commit.Commitment, prs []OpeningProof, ctxs []string, rng io.Reader) ([]error, error) {
	n := len(prs)
	if len(cs) != n || len(ctxs) != n {
		return nil, errBatchLength
	}
	g := p.Group
	errs := make([]error, n)
	chs := make([]*big.Int, n)
	live := make([]int, 0, n)
	for i := range prs {
		if cs[i].C == nil || !g.Contains(cs[i].C) ||
			prs[i].A == nil || !g.Contains(prs[i].A) ||
			!scalarOK(g, prs[i].Z1) || !scalarOK(g, prs[i].Z2) {
			errs[i] = ErrInvalidProof
			continue
		}
		chs[i] = openingChallenge(p, cs[i], prs[i].A, ctxs[i])
		live = append(live, i)
	}
	folded := func(idx []int) (bool, error) {
		rho, err := sampleCoeffs(g, len(idx), rng)
		if err != nil {
			return false, err
		}
		z1 := new(big.Int)
		z2 := new(big.Int)
		bases := make([]*big.Int, 0, 2*len(idx))
		exps := make([]*big.Int, 0, 2*len(idx))
		for k, i := range idx {
			z1.Add(z1, new(big.Int).Mul(rho[k], prs[i].Z1))
			z2.Add(z2, new(big.Int).Mul(rho[k], prs[i].Z2))
			bases = append(bases, prs[i].A, cs[i].C)
			exps = append(exps, rho[k], new(big.Int).Mul(rho[k], chs[i]))
		}
		lhs := p.CommitWith(z1, z2).C // two fixed-base exps; reduces mod Q
		rhs, err := g.MultiExp(bases, exps)
		if err != nil {
			return false, err
		}
		return ct.BigEqual(lhs, rhs), nil
	}
	single := func(i int) error { return VerifyOpening(p, cs[i], prs[i], ctxs[i]) }
	if err := batchCheck(live, errs, folded, single); err != nil {
		return nil, err
	}
	return errs, nil
}

// VerifyBitBatch checks N bit proofs with one folded equation. Each bit
// proof carries two branch equations (h^{z0} == A0·C^{c0} and
// h^{z1} == A1·(C/g)^{c1}); both are folded at once with independent
// coefficients ρ_i, σ_i:
//
//	g^{Σσ_i·c1_i} · h^{Σ(ρ_i·z0_i + σ_i·z1_i)} ==
//	    Π A0_i^{ρ_i} · A1_i^{σ_i} · C_i^{ρ_i·c0_i + σ_i·c1_i}
//
// (the g-term absorbs the (C/g)^{c1} statement without per-proof
// inverses). The challenge split c0 XOR c1 == H(ctx, C, A0, A1) is a
// scalar identity, checked directly per proof before folding.
func VerifyBitBatch(p *commit.Params, cs []commit.Commitment, prs []BitProof, ctxs []string, rng io.Reader) ([]error, error) {
	if len(cs) != len(prs) || len(ctxs) != len(prs) {
		return nil, errBatchLength
	}
	errs := checkMembers(p.Group, cs)
	if err := verifyBitBatch(p, cs, prs, ctxs, rng, errs); err != nil {
		return nil, err
	}
	return errs, nil
}

// checkMembers runs the membership pre-check (Contains) on every
// commitment of a batch and returns the per-proof error slots with the
// non-members already marked. The unexported verifiers below take these
// slots: a nil slot means "cs[i] has passed Contains", a non-nil slot is
// skipped, so a commitment checked by an outer batch is not checked
// again by the batch it is flattened into.
func checkMembers(g *group.Group, cs []commit.Commitment) []error {
	errs := make([]error, len(cs))
	for i := range cs {
		if cs[i].C == nil || !g.Contains(cs[i].C) {
			errs[i] = ErrInvalidProof
		}
	}
	return errs
}

// verifyBitBatch is VerifyBitBatch over already-checked commitments
// (see checkMembers); it fills the remaining slots of errs.
func verifyBitBatch(p *commit.Params, cs []commit.Commitment, prs []BitProof, ctxs []string, rng io.Reader, errs []error) error {
	g := p.Group
	live := make([]int, 0, len(prs))
	for i := range prs {
		if errs[i] != nil {
			continue
		}
		if bitShapeCheck(p, prs[i]) != nil {
			errs[i] = ErrInvalidProof
			continue
		}
		ch := bitChallenge(p, cs[i], prs[i].A0, prs[i].A1, ctxs[i])
		split := new(big.Int).Xor(prs[i].C0, prs[i].C1)
		if !ct.BigEqual(split, ch) {
			errs[i] = ErrInvalidProof
			continue
		}
		live = append(live, i)
	}
	folded := func(idx []int) (bool, error) {
		coeffs, err := sampleCoeffs(g, 2*len(idx), rng)
		if err != nil {
			return false, err
		}
		zsum := new(big.Int)
		gsum := new(big.Int)
		bases := make([]*big.Int, 0, 3*len(idx))
		exps := make([]*big.Int, 0, 3*len(idx))
		for k, i := range idx {
			rho, sig := coeffs[2*k], coeffs[2*k+1]
			zsum.Add(zsum, new(big.Int).Mul(rho, prs[i].Z0))
			zsum.Add(zsum, new(big.Int).Mul(sig, prs[i].Z1))
			sc1 := new(big.Int).Mul(sig, prs[i].C1)
			gsum.Add(gsum, sc1)
			ce := new(big.Int).Mul(rho, prs[i].C0)
			ce.Add(ce, sc1)
			bases = append(bases, prs[i].A0, prs[i].A1, cs[i].C)
			exps = append(exps, rho, sig, ce)
		}
		lhs := p.CommitWith(gsum, zsum).C
		rhs, err := g.MultiExp(bases, exps)
		if err != nil {
			return false, err
		}
		return ct.BigEqual(lhs, rhs), nil
	}
	single := func(i int) error { return verifyBit(p, cs[i], prs[i], ctxs[i]) }
	return batchCheck(live, errs, folded, single)
}

// VerifyRangeBatch checks N range proofs. The recomposition identity
// (Π Bits[j]^{2^j} == C) keeps its direct per-proof check — the weights
// 2^j are tiny exponents, and folding them under 128-bit coefficients
// would cost more than it saves — while ALL bit proofs across the whole
// batch flatten into a single folded bit check (N·nBits statements, one
// multi-exp).
func VerifyRangeBatch(p *commit.Params, cs []commit.Commitment, nBits int, prs []RangeProof, ctxs []string, rng io.Reader) ([]error, error) {
	if len(cs) != len(prs) || len(ctxs) != len(prs) {
		return nil, errBatchLength
	}
	errs := checkMembers(p.Group, cs)
	if err := verifyRangeBatch(p, cs, nBits, prs, ctxs, rng, errs); err != nil {
		return nil, err
	}
	return errs, nil
}

// verifyRangeBatch is VerifyRangeBatch over already-checked commitments
// (see checkMembers); it fills the remaining slots of errs. The bit
// commitments it checks here go to verifyBitBatch as checked.
func verifyRangeBatch(p *commit.Params, cs []commit.Commitment, nBits int, prs []RangeProof, ctxs []string, rng io.Reader, errs []error) error {
	n := len(prs)
	bitCs := make([]commit.Commitment, 0, n*nBits)
	bitPrs := make([]BitProof, 0, n*nBits)
	bitCtxs := make([]string, 0, n*nBits)
	owner := make([]int, 0, n*nBits)
	for i := range prs {
		if errs[i] != nil {
			continue
		}
		if nBits < 1 || nBits > 128 || len(prs[i].Bits) != nBits || len(prs[i].BitProofs) != nBits {
			errs[i] = ErrInvalidProof
			continue
		}
		recomposed, ok := recompose(p.Group, prs[i].Bits)
		if !ok || !ct.BigEqual(recomposed, cs[i].C) {
			errs[i] = ErrInvalidProof
			continue
		}
		for j := 0; j < nBits; j++ {
			bitCs = append(bitCs, prs[i].Bits[j])
			bitPrs = append(bitPrs, prs[i].BitProofs[j])
			bitCtxs = append(bitCtxs, fmt.Sprintf("%s/bit%d", ctxs[i], j))
			owner = append(owner, i)
		}
	}
	bitErrs := make([]error, len(bitCs))
	if err := verifyBitBatch(p, bitCs, bitPrs, bitCtxs, rng, bitErrs); err != nil {
		return err
	}
	for k, e := range bitErrs {
		if e != nil {
			errs[owner[k]] = ErrInvalidProof
		}
	}
	return nil
}

// VerifyBoundBatch checks N bound proofs (0 <= v_i <= bound). Each
// bound proof is two range proofs (v and bound−v); the batch flattens
// both sides of every proof into ONE range batch of 2N statements, so
// all 2·N·nBits bit equations fold into a single multi-exp.
func VerifyBoundBatch(p *commit.Params, cs []commit.Commitment, bound *big.Int, prs []BoundProof, ctxs []string, rng io.Reader) ([]error, error) {
	n := len(prs)
	if len(cs) != n || len(ctxs) != n {
		return nil, errBatchLength
	}
	errs := make([]error, n)
	if bound == nil || bound.Sign() < 0 {
		for i := range errs {
			errs[i] = ErrInvalidProof
		}
		return errs, nil
	}
	g := p.Group
	width := boundWidth(bound)
	cB := p.CommitPublic(bound)
	rCs := make([]commit.Commitment, 0, 2*n)
	rPrs := make([]RangeProof, 0, 2*n)
	rCtxs := make([]string, 0, 2*n)
	live := make([]int, 0, n)
	for i := range prs {
		if prs[i].NBits != width || cs[i].C == nil || !g.Contains(cs[i].C) {
			errs[i] = ErrInvalidProof
			continue
		}
		// cB/c is a quotient of two members, so a member: no check.
		live = append(live, i)
		rCs = append(rCs, cs[i], p.Sub(cB, cs[i]))
		rPrs = append(rPrs, prs[i].Low, prs[i].High)
		rCtxs = append(rCtxs, ctxs[i]+"/low", ctxs[i]+"/high")
	}
	rErrs := make([]error, len(rCs))
	if err := verifyRangeBatch(p, rCs, width, rPrs, rCtxs, rng, rErrs); err != nil {
		return nil, err
	}
	for k, i := range live {
		if rErrs[2*k] != nil || rErrs[2*k+1] != nil {
			errs[i] = ErrInvalidProof
		}
	}
	return errs, nil
}
