// Package ct provides constant-time comparison helpers for the crypto
// packages (blind, commit, token, zk, ...).
//
// PReVer's verification step (paper Figure 2, step 2) has data managers
// check signatures, MACs, and commitment openings on attacker-supplied
// inputs. A comparison that exits at the first differing byte —
// bytes.Equal, big.Int.Cmp — tells a remote attacker how much of a forged
// value matched, which is enough to recover secrets byte by byte in
// classic timing attacks. These helpers route every such check through
// crypto/subtle so the comparison time depends only on the (public)
// operand sizes, never on where the contents differ.
//
// The prever-lint "consttime" analyzer enforces their use: it flags
// bytes.Equal and equality-shaped big.Int.Cmp calls inside verification
// code in the crypto packages.
package ct

import (
	"crypto/subtle"
	"math/big"
)

// BytesEqual reports whether a == b in time that depends only on the
// lengths of the slices, not on their contents. Mismatched lengths return
// false immediately; length is treated as public (ciphertexts, MACs, and
// digests have fixed, known sizes).
//
//lint:ignore unreached safety code: the consttime analyzer's message prescribes it as the fix for bytes.Equal on a secret
func BytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	return subtle.ConstantTimeCompare(a, b) == 1
}

// BigEqual reports whether a == b in time that depends only on the bit
// lengths of the values, not on where their contents differ. Bit length is
// treated as public: every caller compares values already reduced modulo a
// public modulus, so the magnitude bound reveals nothing secret. A nil
// argument equals only another nil.
func BigEqual(a, b *big.Int) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Sign() != b.Sign() {
		return false
	}
	n := a.BitLen()
	if m := b.BitLen(); m > n {
		n = m
	}
	size := (n + 7) / 8
	if size == 0 {
		return true // both are zero
	}
	ab := make([]byte, size)
	bb := make([]byte, size)
	a.FillBytes(ab) // FillBytes writes |a|; signs were checked above
	b.FillBytes(bb)
	return subtle.ConstantTimeCompare(ab, bb) == 1
}
