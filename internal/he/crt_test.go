package he

import (
	"math/big"
	"sync"
	"testing"
	"testing/quick"
)

func mustKey(t testing.TB, bits int) *PrivateKey {
	t.Helper()
	sk, err := GenerateKey(bits, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// DecryptLegacy recovers the signed message via the textbook
// single-modulus path L(c^λ mod n²)·μ mod n: the oracle the CRT path
// must agree with bit-for-bit.
func (sk *PrivateKey) DecryptLegacy(ct *Ciphertext) (*big.Int, error) {
	if err := sk.Valid(ct); err != nil {
		return nil, err
	}
	return sk.decode(sk.legacyResidue(ct)), nil
}

// TestDecryptCRTMatchesLegacy: the CRT and textbook decryption paths
// must agree bit-for-bit on edge-case plaintexts, including negatives
// and the extremes of the signed encoding.
func TestDecryptCRTMatchesLegacy(t *testing.T) {
	for _, bits := range []int{64, 256} {
		sk := mustKey(t, bits)
		if sk.crt == nil {
			t.Fatal("generated key has no CRT components")
		}
		max := sk.MaxMagnitude()
		cases := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			big.NewInt(-1),
			big.NewInt(123456789),
			big.NewInt(-987654321),
			new(big.Int).Set(max),
			new(big.Int).Neg(max),
			new(big.Int).Sub(max, big.NewInt(1)),
			new(big.Int).Neg(new(big.Int).Sub(max, big.NewInt(1))),
		}
		for _, m := range cases {
			if m.BitLen() >= bits {
				continue
			}
			ct, err := sk.Encrypt(m, nil)
			if err != nil {
				t.Fatalf("bits=%d m=%v: %v", bits, m, err)
			}
			got, err := sk.Decrypt(ct)
			if err != nil {
				t.Fatalf("bits=%d m=%v: crt decrypt: %v", bits, m, err)
			}
			legacy, err := sk.DecryptLegacy(ct)
			if err != nil {
				t.Fatalf("bits=%d m=%v: legacy decrypt: %v", bits, m, err)
			}
			if got.Cmp(legacy) != 0 {
				t.Errorf("bits=%d m=%v: crt=%v legacy=%v", bits, m, got, legacy)
			}
			if got.Cmp(m) != 0 {
				t.Errorf("bits=%d: decrypt(encrypt(%v)) = %v", bits, m, got)
			}
		}
	}
}

// TestDecryptCRTProperty: random signed plaintexts round-trip through
// the CRT path and agree with the legacy path.
func TestDecryptCRTProperty(t *testing.T) {
	sk := mustKey(t, 256)
	f := func(v int64) bool {
		m := big.NewInt(v)
		ct, err := sk.Encrypt(m, nil)
		if err != nil {
			return false
		}
		got, err := sk.Decrypt(ct)
		if err != nil {
			return false
		}
		legacy, err := sk.DecryptLegacy(ct)
		if err != nil {
			return false
		}
		return got.Cmp(m) == 0 && got.Cmp(legacy) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 32}); err != nil {
		t.Error(err)
	}
}

// TestDecryptCRTAfterHomomorphicOps: ciphertexts produced by the
// homomorphic operators (not just fresh encryptions) decrypt correctly
// on the CRT path.
func TestDecryptCRTAfterHomomorphicOps(t *testing.T) {
	sk := mustKey(t, 256)
	a, err := sk.EncryptInt(1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sk.EncryptInt(-250, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := sk.Add(a, b)
	scaled, err := sk.MulPlain(sum, big.NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	final, err := sk.Sub(scaled, a) // 3·(1000-250) - 1000 = 1250
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.DecryptInt(final)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1250 {
		t.Errorf("homomorphic result = %d, want 1250", got)
	}
}

// TestDecryptWrongKey: a ciphertext decrypted under a different key must
// not yield the original plaintext (it decodes to unrelated garbage or
// fails the range check).
func TestDecryptWrongKey(t *testing.T) {
	sk1 := mustKey(t, 256)
	sk2 := mustKey(t, 256)
	m := big.NewInt(42424242)
	ct, err := sk1.Encrypt(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk2.Decrypt(ct)
	if err != nil {
		return // range rejection is an acceptable outcome
	}
	if got.Cmp(m) == 0 {
		t.Error("wrong key recovered the plaintext")
	}
}

// --- benchmarks (wired into make bench) -----------------------------------

var (
	benchKeyOnce sync.Once
	benchKey     *PrivateKey
	benchCt      *Ciphertext
)

// benchSetup builds a production-sized (1024-bit n) key once; safe-prime
// free Paillier keygen at this size is fast enough for test binaries.
func benchSetup(b *testing.B) (*PrivateKey, *Ciphertext) {
	b.Helper()
	benchKeyOnce.Do(func() {
		sk, err := GenerateKey(1024, nil)
		if err != nil {
			panic(err)
		}
		ct, err := sk.Encrypt(big.NewInt(-123456789), nil)
		if err != nil {
			panic(err)
		}
		benchKey, benchCt = sk, ct
	})
	return benchKey, benchCt
}

func BenchmarkPaillierDecryptCRT(b *testing.B) {
	sk, ct := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaillierDecryptLegacy(b *testing.B) {
	sk, ct := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.DecryptLegacy(ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaillierNeg is negation as the engines pay it: one modular
// inverse mod n². BenchmarkPaillierNegLegacy is what it replaced, the
// exponent n - 1.
func BenchmarkPaillierNeg(b *testing.B) {
	sk, ct := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Neg(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaillierNegLegacy(b *testing.B) {
	sk, ct := benchSetup(b)
	minusOne := big.NewInt(-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.mulPlainLegacy(ct, minusOne); err != nil {
			b.Fatal(err)
		}
	}
}
