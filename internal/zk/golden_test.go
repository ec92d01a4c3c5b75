package zk

import (
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	mrand "math/rand"
	"os"
	"strings"
	"testing"

	"prever/internal/commit"
)

// appendBoundProof appends a canonical encoding of pr to dst: the width,
// then for each side its digit commitments and every record's
// announcements, challenges and responses in proof order, each as a
// big-endian integer of P's byte length. (With one digit of one record
// a side, as at bound 0, that is the bit proof's commitment-then-proof
// order.)
func appendBoundProof(dst []byte, p *commit.Params, pr BoundProof) []byte {
	size := (p.Group.P.BitLen() + 7) / 8
	put := func(x *big.Int) {
		dst = append(dst, x.FillBytes(make([]byte, size))...)
	}
	dst = append(dst, byte(pr.NBits))
	for _, r := range []RangeProof{pr.Low, pr.High} {
		for _, c := range r.Bits {
			put(c.C)
		}
		for _, bp := range r.BitProofs {
			for _, x := range []*big.Int{bp.A0, bp.A1, bp.C0, bp.C1, bp.Z0, bp.Z1} {
				put(x)
			}
		}
	}
	return dst
}

// TestProveBoundGolden pins the bytes ProveBound returns at MODP2048 on
// a seeded rng to the SHA-256 digest in testdata/prove_bound.sha256
// (TestGroup is generated afresh in every process, so it has no golden).
// A proof is a function of the rng stream and the group's arithmetic
// alone, so an exponentiation routine that computes the same powers
// another way must leave the digest as it is; a diff here means some
// element or scalar of the proof changed.
func TestProveBoundGolden(t *testing.T) {
	checkBoundGolden(t, "testdata/prove_bound.sha256", 29, 40)
}

// TestProveBoundZeroGolden pins a bound-0 proof the same way. Bound 0
// is two one-bit sides, each a digit over {0, 1}, whose bytes are the
// bit proofs' from before bound proofs were base-4 digits: the digest
// in testdata/prove_bound0.sha256 was taken from that construction.
func TestProveBoundZeroGolden(t *testing.T) {
	checkBoundGolden(t, "testdata/prove_bound0.sha256", 0, 0)
}

// checkBoundGolden proves v ≤ bound at MODP2048 on the seed-36 rng
// under the context "golden" and compares the proof's digest with the
// one in file.
func checkBoundGolden(t *testing.T, file string, v, b int64) {
	t.Helper()
	text, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(text))
	p := prodZKParams()
	rng := mrand.New(mrand.NewSource(36))
	r, err := p.Group.RandScalar(rng)
	if err != nil {
		t.Fatal(err)
	}
	m, bound := big.NewInt(v), big.NewInt(b)
	c := p.CommitWith(m, r)
	pr, err := ProveBound(p, c, commit.Opening{M: m, R: r}, bound, "golden", rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBound(p, c, bound, pr, "golden"); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(appendBoundProof(nil, p, pr))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("ProveBound's proof hashes to %s; %s holds %s", got, file, want)
	}
}
