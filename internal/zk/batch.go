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
// modular multiplications per term on a 288-term fold (≈ 50 µs at
// MODP2048; the engine's group of 8 bound-40 proofs folds 120 terms, 15
// per proof) and fewer as the batch grows, where a windowed
// exponentiation of its own costs each term 160 (128-bit) to 320
// (258-bit).
//
// On batch failure the verifier bisects with fresh coefficients per
// half, so error reporting stays per-proof: callers learn exactly which
// indices failed, at O(log N) extra folded checks per offender.
package zk

import (
	"crypto/rand"
	"errors"
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

// digitClaim is one digit of a range proof as the batch verifier
// flattens it: the digit commitment (membership-checked by recompose),
// its value set, its records and its context.
type digitClaim struct {
	c      commit.Commitment
	values []*big.Int
	recs   []BitProof
	ctx    string
}

// verifyDigitBatch checks N digit OR proofs with one folded equation.
// Branch i of a digit D with value t_i has the equation
// h^{z_i} == A_i·(D/g^{t_i})^{c_i}; every branch of every digit folds
// under a coefficient ρ_i of its own:
//
//	g^{Σ ρ_i·c_i·t_i} · h^{Σ ρ_i·z_i} == Π A_i^{ρ_i} · Π_D D^{Σ_{i∈D} ρ_i·c_i}
//
// so a digit adds one term per branch and ONE for its commitment, whose
// exponent gathers its branches' weighted challenge shares, and the
// values' g-part joins the fixed-base side without per-branch inverses.
// The challenge split (the shares XOR to the digit's hash) is a scalar
// identity, checked directly per digit before folding; a failed fold
// bisects per digit.
//
// errs holds one slot per digit: a non-nil slot is skipped, and the
// remaining slots are filled here.
func verifyDigitBatch(p *commit.Params, ds []digitClaim, rng io.Reader, errs []error) error {
	g := p.Group
	type branches struct{ as, cs, zs []*big.Int }
	br := make([]branches, len(ds))
	live := make([]int, 0, len(ds))
	for i, d := range ds {
		if errs[i] != nil {
			continue
		}
		as, cs, zs, ok := digitBranches(p, len(d.values), d.recs)
		if !ok || !splitOK(p, d.c, as, cs, d.ctx) {
			errs[i] = ErrInvalidProof
			continue
		}
		br[i] = branches{as, cs, zs}
		live = append(live, i)
	}
	folded := func(idx []int) (bool, error) {
		n := 0
		for _, i := range idx {
			n += len(ds[i].values)
		}
		rho, err := sampleCoeffs(g, n, rng)
		if err != nil {
			return false, err
		}
		zsum := new(big.Int)
		gsum := new(big.Int)
		bases := make([]*big.Int, 0, n+len(idx))
		exps := make([]*big.Int, 0, n+len(idx))
		for _, i := range idx {
			ce := new(big.Int)
			for k, t := range ds[i].values {
				r := rho[0]
				rho = rho[1:]
				zsum.Add(zsum, new(big.Int).Mul(r, br[i].zs[k]))
				rc := new(big.Int).Mul(r, br[i].cs[k])
				ce.Add(ce, rc)
				if t.Sign() != 0 {
					gsum.Add(gsum, rc.Mul(rc, t))
				}
				bases = append(bases, br[i].as[k])
				exps = append(exps, r)
			}
			bases = append(bases, ds[i].c.C)
			exps = append(exps, ce)
		}
		lhs := p.CommitWith(gsum, zsum).C // two fixed-base exps; reduces mod Q
		rhs, err := g.MultiExp(bases, exps)
		if err != nil {
			return false, err
		}
		return ct.BigEqual(lhs, rhs), nil
	}
	single := func(i int) error { return verifyDigit(p, ds[i].c, ds[i].values, ds[i].recs, ds[i].ctx) }
	return batchCheck(live, errs, folded, single)
}

// verifyRangeBatch checks N range proofs over [0, max]; it fills the
// slots of errs that are still nil, and takes the commitments as
// membership-checked. The recomposition identity (Π D_j^{w_j} == C)
// keeps its direct per-proof check — base-4 Horner, two squarings and a
// product per digit — while ALL digit proofs across the whole batch
// flatten into a single folded digit check (one multi-exp). Each digit
// commitment goes to verifyDigitBatch as checked, recompose having
// checked it.
func verifyRangeBatch(p *commit.Params, cs []commit.Commitment, max *big.Int, prs []RangeProof, ctxs []string, rng io.Reader, errs []error) error {
	sets, setsOK := rangeDigits(max)
	nRecs := recordCount(sets)
	claims := make([]digitClaim, 0, len(prs)*len(sets))
	owner := make([]int, 0, len(prs)*len(sets))
	for i := range prs {
		if errs[i] != nil {
			continue
		}
		if !setsOK || len(prs[i].Bits) != len(sets) || len(prs[i].BitProofs) != nRecs {
			errs[i] = ErrInvalidProof
			continue
		}
		recomposed, ok := recompose(p.Group, prs[i].Bits)
		if !ok || !ct.BigEqual(recomposed, cs[i].C) {
			errs[i] = ErrInvalidProof
			continue
		}
		recs := prs[i].BitProofs
		for j, set := range sets {
			k := len(set) / 2
			claims = append(claims, digitClaim{prs[i].Bits[j], set, recs[:k], digitContext(ctxs[i], j)})
			owner = append(owner, i)
			recs = recs[k:]
		}
	}
	digitErrs := make([]error, len(claims))
	if err := verifyDigitBatch(p, claims, rng, digitErrs); err != nil {
		return err
	}
	for k, e := range digitErrs {
		if e != nil {
			errs[owner[k]] = ErrInvalidProof
		}
	}
	return nil
}

// VerifyBoundBatch checks N bound proofs (0 <= v_i <= bound). For a
// bound B ≥ 1 each proof is one range proof over [0, B], so the batch is
// one range batch of N statements and all N digit proofs' equations
// fold into a single multi-exp: at bound 40 a proof is three four-value
// digits, 15 terms, so 8 proofs fold 120. At bound 0 both one-bit sides
// of every proof join that batch.
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
	max, twoSided := boundRange(bound)
	sides := 1
	if twoSided {
		sides = 2
	}
	rCs := make([]commit.Commitment, 0, sides*n)
	rPrs := make([]RangeProof, 0, sides*n)
	rCtxs := make([]string, 0, sides*n)
	live := make([]int, 0, n)
	for i := range prs {
		if prs[i].NBits != width || cs[i].C == nil || !g.Contains(cs[i].C) ||
			!twoSided && (len(prs[i].High.Bits) != 0 || len(prs[i].High.BitProofs) != 0) {
			errs[i] = ErrInvalidProof
			continue
		}
		live = append(live, i)
		rCs = append(rCs, cs[i])
		rPrs = append(rPrs, prs[i].Low)
		rCtxs = append(rCtxs, ctxs[i]+"/low")
		if twoSided {
			// cB/c is a quotient of two members, so a member: no check.
			rCs = append(rCs, p.Sub(p.CommitPublic(bound), cs[i]))
			rPrs = append(rPrs, prs[i].High)
			rCtxs = append(rCtxs, ctxs[i]+"/high")
		}
	}
	rErrs := make([]error, len(rCs))
	if err := verifyRangeBatch(p, rCs, max, rPrs, rCtxs, rng, rErrs); err != nil {
		return nil, err
	}
	for k, i := range live {
		for _, e := range rErrs[sides*k : sides*(k+1)] {
			if e != nil {
				errs[i] = ErrInvalidProof
			}
		}
	}
	return errs, nil
}
