// Package mpc implements the secure multi-party computation substrate for
// PReVer's decentralized federated path (Research Challenge 2): mutually
// distrustful data managers collectively verify a regulation over their
// private per-platform values without revealing them.
//
// The protocol is a bounded check (CheckBound / CheckFloor with a
// Helper): it decides total <= bound (or total >= bound) WITHOUT revealing
// the total, using a semi-trusted helper holding a Paillier key. Parties
// encrypt inputs under the helper's key; the aggregator homomorphically
// computes Enc(k·(total - bound)) for a random large mask k, re-randomises
// it, and the helper reports only the sign. Leakage: the helper learns
// sign(total - bound) and the masked magnitude k·|total - bound|; the
// aggregator learns only the boolean. This is the classic
// multiplicative-masking comparison; the paper's own discussion accepts a
// designated authority in the loop (Separ's trusted third party) and this
// weakens it to "helper that never sees raw values".
package mpc

import (
	"crypto/rand"
	"errors"
	"math/big"

	"prever/internal/he"
)

// Helper holds the Paillier key for masked comparisons. It never sees raw
// inputs, only the masked difference.
type Helper struct {
	sk *he.PrivateKey
}

// NewHelper generates a helper with a Paillier key of the given size.
func NewHelper(bits int) (*Helper, error) {
	sk, err := he.GenerateKey(bits, nil)
	if err != nil {
		return nil, err
	}
	return &Helper{sk: sk}, nil
}

// PublicKey returns the encryption key parties use.
func (h *Helper) PublicKey() *he.PublicKey { return &h.sk.PublicKey }

// SignOfMasked decrypts a masked difference and returns only its sign
// (-1, 0, +1). This is the helper's entire view of the computation.
func (h *Helper) SignOfMasked(ct *he.Ciphertext) (int, error) {
	m, err := h.sk.Decrypt(ct)
	if err != nil {
		return 0, err
	}
	return m.Sign(), nil
}

// SignOracle abstracts the helper for the aggregator (lets tests inject a
// cheating helper).
type SignOracle interface {
	SignOfMasked(ct *he.Ciphertext) (int, error)
}

// EncryptInput is the party-side step of the bounded check: encrypt a
// private value under the helper's key.
func EncryptInput(pk *he.PublicKey, v int64) (*he.Ciphertext, error) {
	return pk.EncryptInt(v, nil)
}

// maskBits sizes the random multiplicative mask (statistical hiding of the
// difference's magnitude from the helper).
const maskBits = 40

// CheckBound is the aggregator-side step: given the parties' encrypted
// inputs, decide whether their sum is <= bound without learning the sum.
// The helper is handed one ciphertext, a fresh encryption of
// k·(total - bound), and learns its sign and k·|total - bound|; the
// aggregator learns the boolean. Returns true iff sum(inputs) <= bound; no
// inputs sum to zero.
func CheckBound(pk *he.PublicKey, oracle SignOracle, inputs []*he.Ciphertext, bound int64) (bool, error) {
	sign, err := signOfDifference(pk, oracle, inputs, bound)
	return err == nil && sign <= 0, err
}

// CheckFloor is CheckBound for a lower bound: true iff sum(inputs) >=
// bound. Same protocol, same leakage; only the accepted sign differs.
func CheckFloor(pk *he.PublicKey, oracle SignOracle, inputs []*he.Ciphertext, bound int64) (bool, error) {
	sign, err := signOfDifference(pk, oracle, inputs, bound)
	return err == nil && sign >= 0, err
}

// signOfDifference returns sign(sum(inputs) - bound) as the oracle reports
// it. Forming total - bound rather than bound - total keeps negation out
// of the protocol: one AddPlain of -bound, no ciphertext inverted.
func signOfDifference(pk *he.PublicKey, oracle SignOracle, inputs []*he.Ciphertext, bound int64) (int, error) {
	// -bound as a big.Int: math.MinInt64 has no int64 negation.
	negBound := new(big.Int).Neg(big.NewInt(bound))
	if len(inputs) == 0 {
		return negBound.Sign(), nil
	}
	total := pk.EncryptZeroDeterministic()
	for _, ct := range inputs {
		if ct == nil {
			return 0, errors.New("mpc: nil encrypted input")
		}
		total = pk.Add(total, ct)
	}
	d, err := pk.AddPlain(total, negBound)
	if err != nil {
		return 0, err
	}
	// Mask: k·d for random k in [1, 2^maskBits].
	k, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), maskBits))
	if err != nil {
		return 0, err
	}
	k.Add(k, big.NewInt(1))
	masked, err := pk.MulPlain(d, k)
	if err != nil {
		return 0, err
	}
	// Rerandomize: d^k carries the inputs' randomness raised to k, and the
	// key holder can extract a ciphertext's randomness. A fresh r^n leaves
	// the helper nothing to correlate with earlier ciphertexts or to solve
	// for k.
	masked, err = pk.Rerandomize(masked, nil)
	if err != nil {
		return 0, err
	}
	return oracle.SignOfMasked(masked)
}
