// Package he implements the Paillier additively homomorphic encryption
// scheme. It is PReVer's substitute for fully homomorphic encryption in
// Research Challenge 1 (single private database on an untrusted manager):
// the manager evaluates linear constraints — sums, counts, bounded
// aggregates — directly over ciphertexts without ever seeing plaintexts.
//
// Supported homomorphic operations:
//
//	Add(c1, c2)        Enc(m1) ⊕ Enc(m2)      = Enc(m1 + m2)
//	AddPlain(c, k)     Enc(m)  ⊕ k            = Enc(m + k)
//	MulPlain(c, k)     Enc(m)  ⊗ k            = Enc(m · k)
//	Neg(c)             = Enc(-m)
//	Sub(c1, c2)        Enc(m1) ⊖ Enc(m2)      = Enc(m1 - m2)
//
// Messages are signed: values in [0, n/2) are positive, values in
// (n/2, n) decode as negative, so bounded subtraction works naturally.
// A signed scalar costs its magnitude: c⁻¹ mod n² encrypts -m, so
// multiplying by k < 0 is one modular inverse and an exponentiation as
// long as |k|, never the n-sized exponent n - |k|.
package he

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

var one = big.NewInt(1)

// PublicKey is the Paillier public key (n, and cached n²).
type PublicKey struct {
	N  *big.Int
	N2 *big.Int // n², cached
}

// PrivateKey holds the decryption trapdoor.
type PrivateKey struct {
	PublicKey
	lambda *big.Int // lcm(p-1, q-1)
	mu     *big.Int // lambda^{-1} mod n
	crt    *crtKey  // per-prime components; nil falls back to the legacy path
}

// crtKey caches the per-prime components of CRT decryption. Working
// modulo p² and q² instead of n² makes each exponentiation operate on
// half-width moduli with half-width exponents — roughly a 4x saving on
// the dominant modular exponentiation — at the price of retaining the
// factorization in the private key (which Paillier decryption is
// already equivalent to knowing).
type crtKey struct {
	p, q     *big.Int // prime factors of n
	p2, q2   *big.Int // p², q²
	pm1, qm1 *big.Int // p-1, q-1 (per-prime decryption exponents)
	hp, hq   *big.Int // L_p(g^{p-1} mod p²)^{-1} mod p, and the q analogue
	pInvQ    *big.Int // p^{-1} mod q, for Garner recombination
}

// newCRTKey derives the CRT components for g = n+1. Returns nil if any
// inverse fails to exist (impossible for distinct odd primes; the guard
// keeps Decrypt's fallback path honest).
func newCRTKey(p, q, n *big.Int) *crtKey {
	k := &crtKey{
		p:   p,
		q:   q,
		p2:  new(big.Int).Mul(p, p),
		q2:  new(big.Int).Mul(q, q),
		pm1: new(big.Int).Sub(p, one),
		qm1: new(big.Int).Sub(q, one),
	}
	g := new(big.Int).Add(n, one)
	k.hp = lFunc(new(big.Int).Exp(g, k.pm1, k.p2), p)
	k.hp.ModInverse(k.hp, p)
	k.hq = lFunc(new(big.Int).Exp(g, k.qm1, k.q2), q)
	k.hq.ModInverse(k.hq, q)
	k.pInvQ = new(big.Int).ModInverse(p, q)
	if k.hp == nil || k.hq == nil || k.pInvQ == nil {
		return nil
	}
	return k
}

// lFunc is the Paillier L function over a prime modulus: L_p(x) = (x-1)/p
// (the division is exact for x ≡ 1 mod p).
func lFunc(x, p *big.Int) *big.Int {
	out := new(big.Int).Sub(x, one)
	return out.Div(out, p)
}

// Ciphertext is a Paillier ciphertext; an opaque element of Z_{n²}*.
type Ciphertext struct {
	C *big.Int
}

// Clone returns an independent copy.
func (c *Ciphertext) Clone() *Ciphertext {
	return &Ciphertext{C: new(big.Int).Set(c.C)}
}

// GenerateKey creates a Paillier key pair with an n of roughly the given
// bit length. Tests use small sizes (e.g. 256); benchmarks state theirs.
func GenerateKey(bits int, rng io.Reader) (*PrivateKey, error) {
	if bits < 64 {
		return nil, fmt.Errorf("he: %d bits is too small", bits)
	}
	if rng == nil {
		rng = rand.Reader
	}
	for {
		p, err := rand.Prime(rng, bits/2)
		if err != nil {
			return nil, err
		}
		q, err := rand.Prime(rng, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
		lambda := new(big.Int).Mul(pm1, qm1)
		lambda.Div(lambda, gcd)
		mu := new(big.Int).ModInverse(lambda, n)
		if mu == nil {
			continue
		}
		return &PrivateKey{
			PublicKey: PublicKey{N: n, N2: new(big.Int).Mul(n, n)},
			lambda:    lambda,
			mu:        mu,
			crt:       newCRTKey(p, q, n),
		}, nil
	}
}

// MaxMagnitude returns the largest absolute plaintext value the key can
// represent with signed decoding: floor((n-1)/2).
func (pk *PublicKey) MaxMagnitude() *big.Int {
	m := new(big.Int).Sub(pk.N, one)
	return m.Rsh(m, 1)
}

// magnitude returns |m|, or an error when the key's signed range cannot
// hold m.
func (pk *PublicKey) magnitude(m *big.Int) (*big.Int, error) {
	mag := new(big.Int).Abs(m)
	if mag.Cmp(pk.MaxMagnitude()) > 0 {
		return nil, errors.New("he: message magnitude exceeds key capacity")
	}
	return mag, nil
}

// encode maps a signed message into Z_n.
func (pk *PublicKey) encode(m *big.Int) (*big.Int, error) {
	if _, err := pk.magnitude(m); err != nil {
		return nil, err
	}
	return new(big.Int).Mod(m, pk.N), nil
}

// decode maps Z_n back to a signed message.
func (pk *PublicKey) decode(m *big.Int) *big.Int {
	if m.Cmp(pk.MaxMagnitude()) > 0 {
		return new(big.Int).Sub(m, pk.N)
	}
	return new(big.Int).Set(m)
}

// Encrypt encrypts a signed big integer message.
// With g = n+1 the textbook c = g^m r^n mod n² simplifies to
// c = (1 + m·n) · r^n mod n².
func (pk *PublicKey) Encrypt(m *big.Int, rng io.Reader) (*Ciphertext, error) {
	enc, err := pk.encode(m)
	if err != nil {
		return nil, err
	}
	if rng == nil {
		rng = rand.Reader
	}
	var r *big.Int
	for {
		r, err = rand.Int(rng, pk.N)
		if err != nil {
			return nil, err
		}
		if r.Sign() > 0 && new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			break
		}
	}
	gm := new(big.Int).Mul(enc, pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.N2)
	rn := new(big.Int).Exp(r, pk.N, pk.N2)
	c := gm.Mul(gm, rn)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}, nil
}

// EncryptInt is Encrypt for int64 messages.
func (pk *PublicKey) EncryptInt(m int64, rng io.Reader) (*Ciphertext, error) {
	return pk.Encrypt(big.NewInt(m), rng)
}

// Decrypt recovers the signed message. It uses the CRT path: one
// exponentiation mod p² with exponent p-1 (c^{p-1} lands in the
// 1 + multiples-of-p subgroup because the unit group mod p² has order
// p(p-1) and n(p-1) ≡ 0 mod p(p-1)), the analogous step mod q², and
// Garner recombination of the two half-width residues. The result is
// bit-for-bit identical to the textbook path (legacyResidue) on every
// valid ciphertext; crt_test.go holds it to that.
func (sk *PrivateKey) Decrypt(ct *Ciphertext) (*big.Int, error) {
	if err := sk.Valid(ct); err != nil {
		return nil, err
	}
	if sk.crt == nil {
		return sk.decode(sk.legacyResidue(ct)), nil
	}
	k := sk.crt
	mp := crtHalf(ct.C, k.p, k.p2, k.pm1, k.hp)
	mq := crtHalf(ct.C, k.q, k.q2, k.qm1, k.hq)
	// Garner: m = mp + p·((mq - mp)·p^{-1} mod q), the unique value in
	// [0, n) congruent to mp mod p and mq mod q.
	m := new(big.Int).Sub(mq, mp)
	m.Mul(m, k.pInvQ)
	m.Mod(m, k.q)
	m.Mul(m, k.p)
	m.Add(m, mp)
	return sk.decode(m), nil
}

// crtHalf computes the message residue mod one prime:
// L_pr(c^{pr-1} mod pr²) · h mod pr.
func crtHalf(c, pr, pr2, prm1, h *big.Int) *big.Int {
	u := new(big.Int).Exp(c, prm1, pr2)
	u = lFunc(u, pr)
	u.Mul(u, h)
	return u.Mod(u, pr)
}

// legacyResidue is the textbook single-modulus path L(c^λ mod n²)·μ mod
// n: what Decrypt falls back to for a key without CRT components, and
// the oracle the tests hold the CRT path to.
func (sk *PrivateKey) legacyResidue(ct *Ciphertext) *big.Int {
	u := new(big.Int).Exp(ct.C, sk.lambda, sk.N2)
	// L(u) = (u - 1) / n
	u.Sub(u, one)
	u.Div(u, sk.N)
	u.Mul(u, sk.mu)
	return u.Mod(u, sk.N)
}

// Valid reports whether ct is well formed under this key: present and in
// (0, n²). It is the check for ciphertexts arriving from outside — range
// only, so a non-unit (a multiple of p or q, which nobody can produce
// without the factorization) passes here and fails where it is inverted
// or decrypted.
func (pk *PublicKey) Valid(ct *Ciphertext) error {
	if ct == nil || ct.C == nil {
		return errors.New("he: nil ciphertext")
	}
	if ct.C.Sign() <= 0 || ct.C.Cmp(pk.N2) >= 0 {
		return errors.New("he: ciphertext out of range")
	}
	return nil
}

// DecryptInt decrypts to int64, erroring if the value does not fit.
func (sk *PrivateKey) DecryptInt(ct *Ciphertext) (int64, error) {
	m, err := sk.Decrypt(ct)
	if err != nil {
		return 0, err
	}
	if !m.IsInt64() {
		return 0, fmt.Errorf("he: plaintext %v does not fit int64", m)
	}
	return m.Int64(), nil
}

// Add homomorphically adds two ciphertexts.
func (pk *PublicKey) Add(a, b *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(a.C, b.C)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}
}

// AddPlain homomorphically adds a plaintext constant without randomness
// (the result remains semantically secure through the original ciphertext's
// randomness).
func (pk *PublicKey) AddPlain(a *Ciphertext, k *big.Int) (*Ciphertext, error) {
	enc, err := pk.encode(k)
	if err != nil {
		return nil, err
	}
	gk := new(big.Int).Mul(enc, pk.N)
	gk.Add(gk, one)
	gk.Mod(gk, pk.N2)
	c := gk.Mul(gk, a.C)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}, nil
}

// MulPlain homomorphically multiplies by a plaintext constant. The
// exponent is |k|: for k < 0 the ciphertext is inverted first (see Neg),
// so a small negative coefficient costs what its positive twin does.
func (pk *PublicKey) MulPlain(a *Ciphertext, k *big.Int) (*Ciphertext, error) {
	mag, err := pk.magnitude(k)
	if err != nil {
		return nil, err
	}
	if k.Sign() < 0 {
		if a, err = pk.Neg(a); err != nil {
			return nil, err
		}
	}
	return &Ciphertext{C: new(big.Int).Exp(a.C, mag, pk.N2)}, nil
}

// Neg homomorphically negates: with c = (1+n)^m·r^n, the inverse
// c⁻¹ = (1+n)^(-m)·(r⁻¹)^n mod n² is an encryption of -m under randomness
// r⁻¹. Only a unit has one; a ciphertext sharing a factor with n is an
// error.
func (pk *PublicKey) Neg(a *Ciphertext) (*Ciphertext, error) {
	inv := new(big.Int).ModInverse(a.C, pk.N2)
	if inv == nil {
		return nil, errors.New("he: ciphertext is not a unit mod n²")
	}
	return &Ciphertext{C: inv}, nil
}

// Rerandomize refreshes a ciphertext's randomness so that two occurrences
// of the same value are unlinkable (used when a manager republishes
// ciphertexts).
func (pk *PublicKey) Rerandomize(a *Ciphertext, rng io.Reader) (*Ciphertext, error) {
	zero, err := pk.Encrypt(big.NewInt(0), rng)
	if err != nil {
		return nil, err
	}
	return pk.Add(a, zero), nil
}

// EncryptZeroDeterministic returns the trivial encryption of zero (r = 1).
// Useful as the additive identity when folding sums; NOT semantically
// secure on its own.
func (pk *PublicKey) EncryptZeroDeterministic() *Ciphertext {
	return &Ciphertext{C: new(big.Int).Set(one)}
}
