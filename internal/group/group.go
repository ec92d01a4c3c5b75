// Package group implements a Schnorr group of prime order q: the signed
// quadratic residues modulo a safe prime p = 2q + 1 (Hofheinz–Kiltz).
// It is the algebraic foundation for PReVer's Pedersen commitments and
// Σ-protocol zero-knowledge proofs (Research Challenges 1 and 4).
//
// For a safe prime, −1 is a non-residue, so the quadratic residues QR_p
// are isomorphic to Z_p* / {±1}. An element is the class {x, p − x},
// written as its representative |x| = min(x, p − x) in [1, q]; x ↦ |x| is
// the isomorphism, so discrete logarithms are exactly as hard as in QR_p.
// Every operation takes |·| of its result — one comparison and at most
// one subtraction — while its inner arithmetic stays in Z_p*. Membership
// is then a range check, and the other representative p − x of an
// element is not a member: each element has one encoding.
//
// Two parameter sources are provided: Generate produces fresh safe-prime
// parameters of a requested size (tests use small, fast groups), and
// MODP2048 returns the fixed RFC 3526 group 14 parameters for
// production-sized benchmarks.
package group

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"sync"
)

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// Group is a cyclic group of prime order Q, realized as the signed
// quadratic residues [1, Q] modulo the safe prime P = 2Q + 1, generated
// by G.
type Group struct {
	P *big.Int // safe prime modulus
	Q *big.Int // group order, (P-1)/2
	G *big.Int // generator, in [2, Q]

	red *reducer // division-free reduction mod P (reduce.go)
}

// newGroup is the one place a Group value is assembled, so every Group
// carries its reducer.
func newGroup(p, q, g *big.Int) *Group {
	return &Group{P: p, Q: q, G: g, red: newReducer(p)}
}

// Generate creates a fresh safe-prime group with a modulus of the given bit
// length. Intended for tests and small experiments; production deployments
// use fixed parameters (MODP2048).
func Generate(bits int, rng io.Reader) (*Group, error) {
	if bits < 16 {
		return nil, fmt.Errorf("group: %d bits is too small", bits)
	}
	if rng == nil {
		rng = rand.Reader
	}
	for {
		q, err := rand.Prime(rng, bits-1)
		if err != nil {
			return nil, err
		}
		p := new(big.Int).Mul(q, two)
		p.Add(p, one)
		if !p.ProbablyPrime(20) {
			continue
		}
		// Any element other than 1 generates a group of prime order.
		return newGroup(p, q, big.NewInt(4)), nil
	}
}

// modp2048Hex is the RFC 3526 group 14 prime (a safe prime).
const modp2048Hex = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1" +
	"29024E088A67CC74020BBEA63B139B22514A08798E3404DD" +
	"EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245" +
	"E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
	"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D" +
	"C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F" +
	"83655D23DCA3AD961C62F356208552BB9ED529077096966D" +
	"670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B" +
	"E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9" +
	"DE2BCBF6955817183995497CEA956AE515D2261898FA0510" +
	"15728E5A8AACAA68FFFFFFFFFFFFFFFF"

var (
	modpOnce  sync.Once
	modpGroup *Group
)

// MODP2048 returns the fixed 2048-bit group from RFC 3526 (group 14), with
// generator 4.
func MODP2048() *Group {
	modpOnce.Do(func() {
		p, ok := new(big.Int).SetString(modp2048Hex, 16)
		if !ok {
			panic("group: bad MODP2048 constant")
		}
		q := new(big.Int).Sub(p, one)
		q.Div(q, two)
		modpGroup = newGroup(p, q, big.NewInt(4))
	})
	return modpGroup
}

// Contains reports whether x is a group element: 1 <= x <= Q. That is
// the whole test. Every element of Z_P* but 0 has a representative in
// [1, Q], and every x in [1, Q] is one, so a verifier needs no symbol
// and no exponentiation to know that a prover-supplied x lies in the
// prime-order group. The other encoding P − x of the same element is
// rejected, not canonicalised: Fiat–Shamir transcripts, ledger payloads
// and snapshots hash and compare bytes, so an element must have one.
func (g *Group) Contains(x *big.Int) bool {
	return x.Sign() > 0 && x.Cmp(g.Q) <= 0
}

// abs sets x, a residue in [0, P), to its representative min(x, P − x)
// and returns it. Every exported operation ends here.
func (g *Group) abs(x *big.Int) *big.Int {
	if x.Cmp(g.Q) > 0 {
		x.Sub(g.P, x)
	}
	return x
}

// Exp computes |base^exp mod P|. Exponents are reduced mod Q (b^Q = ±1
// vanishes under |·|), so a negative exponent costs a full-width
// exponentiation however short its magnitude: base^-c is base^(Q-c).
// When |exp| is short, invert the base once (Inv) and raise the inverse
// to |exp| instead — the same element at |exp|'s cost.
func (g *Group) Exp(base, exp *big.Int) *big.Int {
	e := new(big.Int).Mod(exp, g.Q)
	return g.abs(new(big.Int).Exp(base, e, g.P))
}

// ExpG computes |G^exp mod P|.
func (g *Group) ExpG(exp *big.Int) *big.Int { return g.Exp(g.G, exp) }

// Mul computes |a*b mod P| for any a and b: operands outside [0, P)
// (negative, or >= P) are reduced first.
func (g *Group) Mul(a, b *big.Int) *big.Int {
	var s reduceScratch
	return g.abs(g.red.mulMod(new(big.Int), g.red.normalise(a), g.red.normalise(b), &s))
}

// Div computes |a * b^-1 mod P|.
func (g *Group) Div(a, b *big.Int) *big.Int {
	inv := new(big.Int).ModInverse(b, g.P)
	return g.Mul(a, inv)
}

// Inv computes the group inverse of a, or nil if a has none (a ≡ 0).
func (g *Group) Inv(a *big.Int) *big.Int {
	inv := new(big.Int).ModInverse(a, g.P)
	if inv == nil {
		return nil
	}
	return g.abs(inv)
}

// RandScalar samples a uniform exponent in [0, Q).
func (g *Group) RandScalar(rng io.Reader) (*big.Int, error) {
	if rng == nil {
		rng = rand.Reader
	}
	return rand.Int(rng, g.Q)
}

// RandElement samples a uniform group element (G^r for random r).
func (g *Group) RandElement(rng io.Reader) (*big.Int, error) {
	r, err := g.RandScalar(rng)
	if err != nil {
		return nil, err
	}
	return g.ExpG(r), nil
}

// DeriveElement hash-maps a label to a group element other than 1 with
// an unknown discrete log relative to G: it hashes the label into Z_P*
// and takes |·| of the result, which is uniform in [1, Q]. Pedersen
// commitments use this for their second generator.
func (g *Group) DeriveElement(label string) *big.Int {
	counter := uint64(0)
	for {
		h := sha256.New()
		h.Write([]byte("prever/group/derive"))
		var c [8]byte
		binary.BigEndian.PutUint64(c[:], counter)
		h.Write(c[:])
		h.Write([]byte(label))
		// Widen the digest to cover the modulus size.
		buf := h.Sum(nil)
		for len(buf)*8 < g.P.BitLen()+64 {
			h2 := sha256.Sum256(buf)
			buf = append(buf, h2[:]...)
		}
		x := new(big.Int).SetBytes(buf)
		g.abs(x.Mod(x, g.P))
		if x.Cmp(one) <= 0 {
			counter++
			continue
		}
		return x
	}
}

// HashToScalar hashes a transcript into an exponent in [0, Q); this is the
// Fiat–Shamir challenge function used by the zk package.
func (g *Group) HashToScalar(domain string, parts ...[]byte) *big.Int {
	h := sha256.New()
	h.Write([]byte("prever/group/fs"))
	writeLen(h, []byte(domain))
	for _, p := range parts {
		writeLen(h, p)
	}
	buf := h.Sum(nil)
	for len(buf)*8 < g.Q.BitLen()+64 {
		h2 := sha256.Sum256(buf)
		buf = append(buf, h2[:]...)
	}
	x := new(big.Int).SetBytes(buf)
	return x.Mod(x, g.Q)
}

func writeLen(h interface{ Write([]byte) (int, error) }, b []byte) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(b)))
	h.Write(n[:])
	h.Write(b)
}

// TestGroup returns a cached small (fast) group for unit tests. The modulus
// is ~257 bits: large enough to exercise real arithmetic, small enough to
// keep test suites quick. Not for production use.
func TestGroup() *Group {
	testOnce.Do(func() {
		var err error
		testGroup, err = Generate(257, nil)
		if err != nil {
			panic(err)
		}
	})
	return testGroup
}

var (
	testOnce  sync.Once
	testGroup *Group
)
