package he

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// mulPlainLegacy is the route MulPlain used to take for every k: encode k
// into Z_n (so k < 0 becomes n - |k|) and raise to that — an n-sized
// exponent for any negative scalar. Kept as the oracle the inverse route
// must decrypt equal to.
func (pk *PublicKey) mulPlainLegacy(a *Ciphertext, k *big.Int) (*Ciphertext, error) {
	enc, err := pk.encode(k)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{C: new(big.Int).Exp(a.C, enc, pk.N2)}, nil
}

// signedRange is the signed plaintext range's corners plus random values
// across it.
func signedRange(t *testing.T, pk *PublicKey) []*big.Int {
	t.Helper()
	max := pk.MaxMagnitude()
	vs := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1),
		big.NewInt(40), big.NewInt(-40),
		new(big.Int).Set(max), new(big.Int).Neg(max),
	}
	for i := 0; i < 4; i++ {
		r, err := rand.Int(rand.Reader, pk.N) // [0, n) shifts to [-max, max]
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, r.Sub(r, max))
	}
	return vs
}

// TestSignedScalarsMatchLegacyRoute: Neg, Sub and MulPlain by a negative k
// decrypt to -m, a - b and m·k (in the key's signed arithmetic mod n), and
// to exactly what the n - |k| exponent decrypts to.
func TestSignedScalarsMatchLegacyRoute(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	vs := signedRange(t, pk)
	// wrap is arithmetic as the scheme does it: mod n, decoded signed.
	wrap := func(x *big.Int) *big.Int { return pk.decode(new(big.Int).Mod(x, pk.N)) }
	dec := func(ct *Ciphertext, err error) *big.Int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		m, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	minusOne := big.NewInt(-1)
	cts := make([]*Ciphertext, len(vs))
	for i, m := range vs {
		var err error
		if cts[i], err = pk.Encrypt(m, nil); err != nil {
			t.Fatalf("encrypt %v: %v", m, err)
		}
	}
	for i, m := range vs {
		c := cts[i]
		neg := dec(pk.Neg(c))
		if want := new(big.Int).Neg(m); neg.Cmp(want) != 0 {
			t.Errorf("Neg(Enc(%v)) = %v", m, neg)
		}
		if legacy := dec(pk.mulPlainLegacy(c, minusOne)); neg.Cmp(legacy) != 0 {
			t.Errorf("Neg(Enc(%v)) = %v, legacy route %v", m, neg, legacy)
		}
		for j, o := range vs {
			// o plays b in a - b, then k in m·k.
			diff := dec(sub(pk, c, cts[j]))
			if want := wrap(new(big.Int).Sub(m, o)); diff.Cmp(want) != 0 {
				t.Errorf("Enc(%v) - Enc(%v) = %v, want %v", m, o, diff, want)
			}
			legacyNeg, err := pk.mulPlainLegacy(cts[j], minusOne)
			if err != nil {
				t.Fatal(err)
			}
			if legacy := dec(pk.Add(c, legacyNeg), nil); diff.Cmp(legacy) != 0 {
				t.Errorf("Enc(%v) - Enc(%v) = %v, legacy route %v", m, o, diff, legacy)
			}
			prod := dec(pk.MulPlain(c, o))
			if want := wrap(new(big.Int).Mul(m, o)); prod.Cmp(want) != 0 {
				t.Errorf("Enc(%v)·%v = %v, want %v", m, o, prod, want)
			}
			if legacy := dec(pk.mulPlainLegacy(c, o)); prod.Cmp(legacy) != 0 {
				t.Errorf("Enc(%v)·%v = %v, legacy route %v", m, o, prod, legacy)
			}
		}
	}
	// One past the range is refused whatever its sign.
	over := new(big.Int).Add(pk.MaxMagnitude(), big.NewInt(1))
	for _, k := range []*big.Int{over, new(big.Int).Neg(over)} {
		if _, err := pk.MulPlain(cts[0], k); err == nil {
			t.Errorf("MulPlain by %v accepted", k)
		}
	}
}

// TestNegOfNonUnitIsAnError: a ciphertext sharing a factor with n has no
// inverse mod n²; every route through negation reports it.
func TestNegOfNonUnitIsAnError(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	for name, c := range map[string]*big.Int{
		"p":   new(big.Int).Set(sk.crt.p),
		"n":   new(big.Int).Set(pk.N),
		"3q²": new(big.Int).Mul(big.NewInt(3), sk.crt.q2),
	} {
		bad := &Ciphertext{C: c}
		if err := pk.Valid(bad); err != nil {
			t.Fatalf("%s: Valid is a range check and should pass a non-unit: %v", name, err)
		}
		if _, err := pk.Neg(bad); err == nil {
			t.Errorf("Neg(%s) returned no error", name)
		}
		if _, err := pk.MulPlain(bad, big.NewInt(-3)); err == nil {
			t.Errorf("MulPlain(%s, -3) returned no error", name)
		}
		if _, err := pk.MulPlain(bad, big.NewInt(3)); err != nil {
			t.Errorf("MulPlain(%s, 3) needs no inverse: %v", name, err)
		}
	}
}

func TestValid(t *testing.T) {
	sk := key(t)
	pk := &sk.PublicKey
	ok, err := pk.EncryptInt(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	top := new(big.Int).Sub(pk.N2, big.NewInt(1))
	for _, ct := range []*Ciphertext{ok, {C: big.NewInt(1)}, {C: top}} {
		if err := pk.Valid(ct); err != nil {
			t.Errorf("Valid(%v) = %v", ct.C, err)
		}
	}
	for name, ct := range map[string]*Ciphertext{
		"nil":      nil,
		"nil C":    {},
		"zero":     {C: big.NewInt(0)},
		"negative": {C: new(big.Int).Neg(ok.C)},
		"n²":       {C: new(big.Int).Set(pk.N2)},
		"c + n²":   {C: new(big.Int).Add(ok.C, pk.N2)},
	} {
		if err := pk.Valid(ct); err == nil {
			t.Errorf("Valid(%s) passed", name)
		}
	}
}
