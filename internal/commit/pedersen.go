// Package commit implements Pedersen commitments over a Schnorr group:
// unconditionally hiding, computationally binding commitments with additive
// homomorphism. PReVer uses them wherever a participant must fix a private
// value (an update amount, a running aggregate) that is later reasoned
// about in zero knowledge (Research Challenge 1) or combined across
// distrustful parties (Research Challenge 2).
//
// A commitment to message m with randomness r is C = g^m · h^r mod p where
// h is a second generator with an unknown discrete log relative to g
// (derived by hashing into the group).
package commit

import (
	"io"
	"math/big"

	"prever/internal/ct"
	"prever/internal/group"
)

// Params holds the commitment parameters: the group and the two
// generators, with fixed-base precomputation tables for both (commitments
// and Σ-protocol proofs exponentiate g and h constantly).
type Params struct {
	Group *group.Group
	G     *big.Int
	H     *big.Int

	gBase *group.FixedBase
	hBase *group.FixedBase
}

// NewParams derives commitment parameters from a group. The second
// generator is hash-derived so nobody knows log_g(h).
func NewParams(g *group.Group) *Params {
	h := g.DeriveElement("prever/commit/pedersen-h")
	return &Params{
		Group: g,
		G:     g.G,
		H:     h,
		gBase: g.NewFixedBase(g.G),
		hBase: g.NewFixedBase(h),
	}
}

// ExpG computes G^e using the precomputed table.
func (p *Params) ExpG(e *big.Int) *big.Int { return p.gBase.Exp(e) }

// ExpH computes H^e using the precomputed table.
func (p *Params) ExpH(e *big.Int) *big.Int { return p.hBase.Exp(e) }

// Commitment is a committed value: a single group element.
type Commitment struct {
	C *big.Int
}

// Bytes returns the canonical encoding (for transcripts).
func (c Commitment) Bytes() []byte { return c.C.Bytes() }

// Equal reports element equality. Constant-time: Verify routes commitment
// opening checks through here, and a short-circuiting compare would leak
// how many leading bytes of a forged opening matched.
func (c Commitment) Equal(o Commitment) bool { return ct.BigEqual(c.C, o.C) }

// Opening is the (message, randomness) pair that opens a commitment.
type Opening struct {
	M *big.Int
	R *big.Int
}

// Commit commits to message m with fresh randomness, returning the
// commitment and its opening. m may be negative; it is reduced mod q.
func (p *Params) Commit(m *big.Int, rng io.Reader) (Commitment, Opening, error) {
	r, err := p.Group.RandScalar(rng)
	if err != nil {
		return Commitment{}, Opening{}, err
	}
	return p.CommitWith(m, r), Opening{M: new(big.Int).Set(m), R: r}, nil
}

// CommitWith commits with caller-chosen randomness (used by the range
// prover, which needs correlated randomness across bit commitments).
func (p *Params) CommitWith(m, r *big.Int) Commitment {
	gm := p.ExpG(m)
	hr := p.ExpH(r)
	return Commitment{C: p.Group.Mul(gm, hr)}
}

// CommitInt is Commit for int64 messages.
func (p *Params) CommitInt(m int64, rng io.Reader) (Commitment, Opening, error) {
	return p.Commit(big.NewInt(m), rng)
}

// Add homomorphically combines two commitments:
// Commit(m1, r1) * Commit(m2, r2) = Commit(m1+m2, r1+r2).
func (p *Params) Add(a, b Commitment) Commitment {
	return Commitment{C: p.Group.Mul(a.C, b.C)}
}

// AddOpenings combines openings to match Add.
func (p *Params) AddOpenings(a, b Opening) Opening {
	m := new(big.Int).Add(a.M, b.M)
	r := new(big.Int).Add(a.R, b.R)
	r.Mod(r, p.Group.Q)
	return Opening{M: m, R: r}
}

// Sub computes Commit(m1-m2, r1-r2).
func (p *Params) Sub(a, b Commitment) Commitment {
	return Commitment{C: p.Group.Div(a.C, b.C)}
}

// CommitPublic commits to a public constant with zero randomness; anyone
// can recompute it. Used to fold public bounds into homomorphic relations
// (e.g. forming a commitment to B - v from public B and Commit(v)).
func (p *Params) CommitPublic(m *big.Int) Commitment {
	return Commitment{C: p.ExpG(m)}
}
