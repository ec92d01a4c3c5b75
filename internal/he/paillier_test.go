package he

import (
	"math/big"
	"sync"
	"testing"
	"testing/quick"
)

var (
	testKeyOnce sync.Once
	testKey     *PrivateKey
)

func key(t testing.TB) *PrivateKey {
	testKeyOnce.Do(func() {
		var err error
		testKey, err = GenerateKey(256, nil)
		if err != nil {
			panic(err)
		}
	})
	return testKey
}

func TestGenerateKeyRejectsTiny(t *testing.T) {
	if _, err := GenerateKey(16, nil); err == nil {
		t.Fatal("tiny key accepted")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := key(t)
	for _, m := range []int64{0, 1, -1, 42, -42, 1 << 40, -(1 << 40)} {
		ct, err := sk.EncryptInt(m, nil)
		if err != nil {
			t.Fatalf("encrypt %d: %v", m, err)
		}
		got, err := sk.DecryptInt(ct)
		if err != nil {
			t.Fatalf("decrypt %d: %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip %d -> %d", m, got)
		}
	}
}

func TestEncryptIsProbabilistic(t *testing.T) {
	sk := key(t)
	a, _ := sk.EncryptInt(7, nil)
	b, _ := sk.EncryptInt(7, nil)
	if a.C.Cmp(b.C) == 0 {
		t.Fatal("two encryptions of the same value are identical")
	}
}

func TestEncryptRejectsOversized(t *testing.T) {
	sk := key(t)
	tooBig := new(big.Int).Set(sk.N) // > n/2
	if _, err := sk.Encrypt(tooBig, nil); err == nil {
		t.Fatal("oversized message accepted")
	}
	// MaxMagnitude itself must round trip.
	m := sk.MaxMagnitude()
	ct, err := sk.Encrypt(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(ct)
	if err != nil || got.Cmp(m) != 0 {
		t.Fatalf("max magnitude round trip failed: %v, %v", got, err)
	}
}

func TestDecryptRejectsGarbage(t *testing.T) {
	sk := key(t)
	if _, err := sk.Decrypt(nil); err == nil {
		t.Fatal("nil ciphertext accepted")
	}
	if _, err := sk.Decrypt(&Ciphertext{C: big.NewInt(0)}); err == nil {
		t.Fatal("zero ciphertext accepted")
	}
	if _, err := sk.Decrypt(&Ciphertext{C: new(big.Int).Set(sk.N2)}); err == nil {
		t.Fatal("out-of-range ciphertext accepted")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	sk := key(t)
	a, _ := sk.EncryptInt(15, nil)
	b, _ := sk.EncryptInt(27, nil)
	sum, err := sk.DecryptInt(sk.Add(a, b))
	if err != nil || sum != 42 {
		t.Fatalf("Enc(15)+Enc(27) = %d, %v", sum, err)
	}
}

func TestHomomorphicAddPlain(t *testing.T) {
	sk := key(t)
	a, _ := sk.EncryptInt(10, nil)
	c, err := sk.AddPlain(a, big.NewInt(-3))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := sk.DecryptInt(c)
	if got != 7 {
		t.Fatalf("Enc(10)+(-3) = %d", got)
	}
}

func TestHomomorphicMulPlain(t *testing.T) {
	sk := key(t)
	a, _ := sk.EncryptInt(6, nil)
	c, err := sk.MulPlain(a, big.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := sk.DecryptInt(c)
	if got != 42 {
		t.Fatalf("Enc(6)*7 = %d", got)
	}
}

func TestHomomorphicNegAndSub(t *testing.T) {
	sk := key(t)
	a, _ := sk.EncryptInt(30, nil)
	b, _ := sk.EncryptInt(72, nil)
	diff, err := sk.Sub(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := sk.DecryptInt(diff)
	if got != -42 {
		t.Fatalf("Enc(30)-Enc(72) = %d", got)
	}
	neg, err := sk.Neg(a)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = sk.DecryptInt(neg)
	if got != -30 {
		t.Fatalf("-Enc(30) = %d", got)
	}
}

func TestRerandomizePreservesValue(t *testing.T) {
	sk := key(t)
	a, _ := sk.EncryptInt(99, nil)
	b, err := sk.Rerandomize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.C.Cmp(b.C) == 0 {
		t.Fatal("rerandomize did not change the ciphertext")
	}
	got, _ := sk.DecryptInt(b)
	if got != 99 {
		t.Fatalf("rerandomized value = %d", got)
	}
}

func TestEncryptZeroDeterministicIsIdentity(t *testing.T) {
	sk := key(t)
	zero := sk.EncryptZeroDeterministic()
	a, _ := sk.EncryptInt(5, nil)
	got, _ := sk.DecryptInt(sk.Add(a, zero))
	if got != 5 {
		t.Fatalf("a + Enc0 = %d", got)
	}
}

func TestCiphertextClone(t *testing.T) {
	sk := key(t)
	a, _ := sk.EncryptInt(5, nil)
	b := a.Clone()
	b.C.Add(b.C, big.NewInt(1))
	got, err := sk.DecryptInt(a)
	if err != nil || got != 5 {
		t.Fatal("clone aliased the original")
	}
}

// Property: Dec(Enc(a) + Enc(b)) == a + b and Dec(k*Enc(a)) == k*a for
// random signed inputs.
func TestQuickHomomorphism(t *testing.T) {
	sk := key(t)
	f := func(a, b int32, k int16) bool {
		ca, err := sk.EncryptInt(int64(a), nil)
		if err != nil {
			return false
		}
		cb, err := sk.EncryptInt(int64(b), nil)
		if err != nil {
			return false
		}
		sum, err := sk.DecryptInt(sk.Add(ca, cb))
		if err != nil || sum != int64(a)+int64(b) {
			return false
		}
		scaled, err := sk.MulPlain(ca, big.NewInt(int64(k)))
		if err != nil {
			return false
		}
		prod, err := sk.DecryptInt(scaled)
		return err == nil && prod == int64(a)*int64(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a linear combination Σ k_i·m_i evaluated under encryption
// matches the plaintext computation. This is exactly the constraint shape
// the EncryptedManager evaluates.
func TestQuickLinearCombination(t *testing.T) {
	sk := key(t)
	f := func(ms [4]int16, ks [4]int8) bool {
		acc := sk.EncryptZeroDeterministic()
		want := int64(0)
		for i := range ms {
			ct, err := sk.EncryptInt(int64(ms[i]), nil)
			if err != nil {
				return false
			}
			term, err := sk.MulPlain(ct, big.NewInt(int64(ks[i])))
			if err != nil {
				return false
			}
			acc = sk.Add(acc, term)
			want += int64(ms[i]) * int64(ks[i])
		}
		got, err := sk.DecryptInt(acc)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncrypt256(b *testing.B) {
	sk := key(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.EncryptInt(int64(i), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt256(b *testing.B) {
	sk := key(b)
	ct, _ := sk.EncryptInt(12345, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.DecryptInt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHomomorphicAdd256(b *testing.B) {
	sk := key(b)
	x, _ := sk.EncryptInt(1, nil)
	y, _ := sk.EncryptInt(2, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Add(x, y)
	}
}
