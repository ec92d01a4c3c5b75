// Package blind implements Chaum RSA blind signatures. They are the
// cryptographic core of PReVer's single-use pseudonymous tokens (Research
// Challenge 2, Separ-style): an authority signs a token without seeing its
// serial number, so a platform can later verify the token is
// authority-issued while nobody can link it back to the issuance — the
// worker stays pseudonymous across platforms.
//
// Protocol: the requester blinds the hashed message with a random factor
// r^e, the signer exponentiates with d as usual, and the requester strips r
// to obtain a standard RSA signature on the message.
package blind

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"io"
	"math/big"

	"prever/internal/ct"
)

// Signer holds the authority's RSA private key.
type Signer struct {
	key *rsa.PrivateKey
}

// PublicKey is the verification key distributed to all participants.
type PublicKey struct {
	N *big.Int
	E int
}

// NewSigner generates a signing key of the given modulus size.
func NewSigner(bits int, rng io.Reader) (*Signer, error) {
	if rng == nil {
		rng = rand.Reader
	}
	key, err := rsa.GenerateKey(rng, bits)
	if err != nil {
		return nil, err
	}
	return &Signer{key: key}, nil
}

// Public returns the signer's public key.
func (s *Signer) Public() PublicKey {
	return PublicKey{N: new(big.Int).Set(s.key.N), E: s.key.E}
}

// hashToModulus maps a message into Z_N via SHA-256 (full-domain-hash
// style, widened to the modulus size).
func hashToModulus(msg []byte, n *big.Int) *big.Int {
	buf := sha256.Sum256(msg)
	out := buf[:]
	for len(out)*8 < n.BitLen()+64 {
		next := sha256.Sum256(out)
		out = append(out, next[:]...)
	}
	x := new(big.Int).SetBytes(out)
	return x.Mod(x, n)
}

// Blinded is a message prepared for blind signing, plus the unblinding
// factor the requester keeps secret.
type Blinded struct {
	Msg      *big.Int // H(m) · r^e mod N — sent to the signer
	unblindR *big.Int // r — kept by the requester
	pub      PublicKey
	original []byte
}

// Blind prepares msg for blind signing under pub.
func Blind(pub PublicKey, msg []byte, rng io.Reader) (*Blinded, error) {
	if rng == nil {
		rng = rand.Reader
	}
	h := hashToModulus(msg, pub.N)
	var r *big.Int
	for {
		var err error
		r, err = rand.Int(rng, pub.N)
		if err != nil {
			return nil, err
		}
		if r.Sign() > 0 && new(big.Int).GCD(nil, nil, r, pub.N).Cmp(big.NewInt(1)) == 0 {
			break
		}
	}
	re := new(big.Int).Exp(r, big.NewInt(int64(pub.E)), pub.N)
	blinded := new(big.Int).Mul(h, re)
	blinded.Mod(blinded, pub.N)
	return &Blinded{Msg: blinded, unblindR: r, pub: pub, original: append([]byte(nil), msg...)}, nil
}

// Sign blind-signs a blinded message. The signer learns nothing about the
// underlying message.
func (s *Signer) Sign(blindedMsg *big.Int) (*big.Int, error) {
	if blindedMsg == nil || blindedMsg.Sign() <= 0 || blindedMsg.Cmp(s.key.N) >= 0 {
		return nil, errors.New("blind: blinded message out of range")
	}
	return new(big.Int).Exp(blindedMsg, s.key.D, s.key.N), nil
}

// Unblind strips the blinding factor, yielding a standard RSA-FDH
// signature on the original message. It verifies the result before
// returning it, so a misbehaving signer is detected immediately.
func (b *Blinded) Unblind(blindSig *big.Int) (*big.Int, error) {
	if blindSig == nil {
		return nil, errors.New("blind: nil signature")
	}
	rInv := new(big.Int).ModInverse(b.unblindR, b.pub.N)
	sig := new(big.Int).Mul(blindSig, rInv)
	sig.Mod(sig, b.pub.N)
	if err := Verify(b.pub, b.original, sig); err != nil {
		return nil, errors.New("blind: signer returned an invalid signature")
	}
	return sig, nil
}

// Verify checks an (unblinded) signature on msg.
func Verify(pub PublicKey, msg []byte, sig *big.Int) error {
	if sig == nil || sig.Sign() <= 0 || sig.Cmp(pub.N) >= 0 {
		return errors.New("blind: signature out of range")
	}
	check := new(big.Int).Exp(sig, big.NewInt(int64(pub.E)), pub.N)
	// Constant-time: platforms verify attacker-supplied token signatures,
	// and an early-exit compare would leak how much of a forgery matched.
	if !ct.BigEqual(check, hashToModulus(msg, pub.N)) {
		return errors.New("blind: signature verification failed")
	}
	return nil
}
