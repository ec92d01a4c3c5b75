package mpc

import (
	"math"
	"math/big"
	"sync"
	"testing"

	"prever/internal/costtest"
	"prever/internal/he"
)

func newHelper(t testing.TB) *Helper {
	helperOnce.Do(func() {
		var err error
		testHelper, err = NewHelper(256)
		if err != nil {
			panic(err)
		}
	})
	return testHelper
}

var (
	helperOnce sync.Once
	testHelper *Helper
)

func TestCheckBoundSatisfied(t *testing.T) {
	h := newHelper(t)
	pk := h.PublicKey()
	var inputs []*he.Ciphertext
	for _, v := range []int64{10, 12, 8} { // total 30 <= 40
		ct, err := EncryptInput(pk, v)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, ct)
	}
	ok, err := CheckBound(pk, h, inputs, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("30 <= 40 reported as violated")
	}
}

func TestCheckBoundViolated(t *testing.T) {
	h := newHelper(t)
	pk := h.PublicKey()
	var inputs []*he.Ciphertext
	for _, v := range []int64{20, 15, 10} { // total 45 > 40
		ct, _ := EncryptInput(pk, v)
		inputs = append(inputs, ct)
	}
	ok, err := CheckBound(pk, h, inputs, 40)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("45 <= 40 reported as satisfied")
	}
}

func TestCheckBoundExactBoundary(t *testing.T) {
	h := newHelper(t)
	pk := h.PublicKey()
	var inputs []*he.Ciphertext
	for _, v := range []int64{20, 20} { // total exactly 40
		ct, _ := EncryptInput(pk, v)
		inputs = append(inputs, ct)
	}
	ok, err := CheckBound(pk, h, inputs, 40)
	if err != nil || !ok {
		t.Fatalf("40 <= 40: ok=%v err=%v", ok, err)
	}
	// And 41 must fail.
	extra, _ := EncryptInput(pk, 1)
	ok, err = CheckBound(pk, h, append(inputs, extra), 40)
	if err != nil || ok {
		t.Fatalf("41 <= 40: ok=%v err=%v", ok, err)
	}
}

// TestCheckBoundEmptyInputs: no inputs sum to zero, and zero is compared
// with the bound like any other total — without asking the oracle.
func TestCheckBoundEmptyInputs(t *testing.T) {
	h := newHelper(t)
	rec := &recordingOracle{t: t, h: h}
	for _, tc := range []struct {
		bound        int64
		upper, floor bool // 0 <= bound, 0 >= bound
	}{
		{0, true, true},
		{5, true, false},
		{-5, false, true},
		{math.MaxInt64, true, false},
		{math.MinInt64, false, true},
	} {
		ok, err := CheckBound(h.PublicKey(), rec, nil, tc.bound)
		if err != nil || ok != tc.upper {
			t.Errorf("CheckBound(no inputs, %d) = %v, %v; want %v", tc.bound, ok, err, tc.upper)
		}
		ok, err = CheckFloor(h.PublicKey(), rec, nil, tc.bound)
		if err != nil || ok != tc.floor {
			t.Errorf("CheckFloor(no inputs, %d) = %v, %v; want %v", tc.bound, ok, err, tc.floor)
		}
	}
	if len(rec.seen) != 0 {
		t.Errorf("oracle asked %d times about an empty sum", len(rec.seen))
	}
}

// recordingOracle is the honest Helper with its view written down: every
// ciphertext it was handed and the plaintext it decrypted to.
type recordingOracle struct {
	t      *testing.T
	h      *Helper
	seen   []*he.Ciphertext
	plains []*big.Int
}

func (r *recordingOracle) SignOfMasked(ct *he.Ciphertext) (int, error) {
	m, err := r.h.sk.Decrypt(ct)
	if err != nil {
		r.t.Errorf("helper handed an undecryptable ciphertext: %v", err)
		return 0, err
	}
	r.seen = append(r.seen, ct.Clone())
	r.plains = append(r.plains, m)
	return r.h.SignOfMasked(ct)
}

// TestCheckBoundTruthTable walks total across each bound in both
// directions — negative totals and negative bounds included — and holds
// the helper's view to the protocol: one ciphertext per check, decrypting
// to k·(total - bound) for some 1 <= k <= 2^40, never the same ciphertext
// twice for the same inputs.
func TestCheckBoundTruthTable(t *testing.T) {
	h := newHelper(t)
	pk := h.PublicKey()
	maxMask := new(big.Int).Lsh(big.NewInt(1), maskBits)
	checks := []struct {
		name   string
		check  func(*he.PublicKey, SignOracle, []*he.Ciphertext, int64) (bool, error)
		accept func(sign int) bool
	}{
		{"CheckBound", CheckBound, func(sign int) bool { return sign <= 0 }},
		{"CheckFloor", CheckFloor, func(sign int) bool { return sign >= 0 }},
	}
	for _, bound := range []int64{40, 0, -7, math.MinInt64 + 100, math.MaxInt64 - 100} {
		for _, delta := range []int64{-28, -1, 0, 1, 55} {
			total := bound + delta
			// Two inputs of opposite sign that sum to total.
			parts := []int64{total + 1000, -1000}
			if total > 0 {
				parts = []int64{total - 1000, 1000}
			}
			var inputs []*he.Ciphertext
			for _, v := range parts {
				ct, err := EncryptInput(pk, v)
				if err != nil {
					t.Fatal(err)
				}
				inputs = append(inputs, ct)
			}
			rec := &recordingOracle{t: t, h: h}
			for _, c := range checks {
				for rep := 0; rep < 2; rep++ {
					got, err := c.check(pk, rec, inputs, bound)
					if err != nil {
						t.Fatalf("%s(total=%d, bound=%d): %v", c.name, total, bound, err)
					}
					if got != c.accept(big.NewInt(delta).Sign()) {
						t.Errorf("%s(total=%d, bound=%d) = %v", c.name, total, bound, got)
					}
				}
			}
			if len(rec.seen) != 4 {
				t.Fatalf("total=%d bound=%d: oracle asked %d times over 4 checks", total, bound, len(rec.seen))
			}
			for i, p := range rec.plains {
				if delta == 0 {
					if p.Sign() != 0 {
						t.Errorf("total = bound = %d: helper saw %v, want 0", bound, p)
					}
					continue
				}
				k, rem := new(big.Int).QuoRem(p, big.NewInt(delta), new(big.Int))
				if rem.Sign() != 0 || k.Sign() <= 0 || k.Cmp(maxMask) > 0 {
					t.Errorf("total=%d bound=%d check %d: helper saw %v, not k·(total - bound) with k in [1, 2^%d]", total, bound, i, p, maskBits)
				}
			}
			for i := range rec.seen {
				for j := i + 1; j < len(rec.seen); j++ {
					if rec.seen[i].C.Cmp(rec.seen[j].C) == 0 {
						t.Errorf("total=%d bound=%d: checks %d and %d handed the helper the same ciphertext", total, bound, i, j)
					}
				}
			}
		}
	}
}

func TestCheckBoundNilInputRejected(t *testing.T) {
	h := newHelper(t)
	if _, err := CheckBound(h.PublicKey(), h, []*he.Ciphertext{nil}, 10); err == nil {
		t.Fatal("nil input accepted")
	}
}

func TestCheckBoundManyTrials(t *testing.T) {
	// The random mask must never flip the comparison.
	h := newHelper(t)
	pk := h.PublicKey()
	for trial := 0; trial < 20; trial++ {
		v := int64(trial * 5) // 0..95
		ct, _ := EncryptInput(pk, v)
		ok, err := CheckBound(pk, h, []*he.Ciphertext{ct}, 50)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (v <= 50) {
			t.Fatalf("v=%d bound=50: got %v", v, ok)
		}
	}
}

func BenchmarkCheckBound3(b *testing.B) {
	h := newHelper(b)
	pk := h.PublicKey()
	var inputs []*he.Ciphertext
	for _, v := range []int64{10, 12, 8} {
		ct, _ := EncryptInput(pk, v)
		inputs = append(inputs, ct)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CheckBound(pk, h, inputs, 40); err != nil {
			b.Fatal(err)
		}
	}
}

// checkBoundCostKey is the 1024-bit helper the cost gate and
// BenchmarkCheckBound1024 share: the benchmark's key size.
var checkBoundCostKey = sync.OnceValues(func() (*Helper, error) { return NewHelper(1024) })

func BenchmarkCheckBound1024(b *testing.B) {
	h, err := checkBoundCostKey()
	if err != nil {
		b.Fatal(err)
	}
	pk := h.PublicKey()
	ct, err := EncryptInput(pk, 30)
	if err != nil {
		b.Fatal(err)
	}
	inputs := []*he.Ciphertext{ct}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CheckBound(pk, h, inputs, 40); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCheckBoundCost gates what a masked comparison costs against the two
// operations the protocol cannot avoid: a fresh r^n for the ciphertext
// that leaves the aggregator (Encrypt(0)) and the helper's Decrypt. Both
// are measured here, interleaved with CheckBound on the same key, so the
// ratio does not depend on the host's speed. With negation on the path it
// read ≈ 1.8; the mask's 40-bit exponent and the fold leave ≈ 1.08.
//
// The gate is the median, over 201 back-to-back pairs, of each pair's
// ratio of thread CPU time (costtest.Ratio). The fastest sample of each
// side, which this gate used to compare, read 0.81x–1.36x on a 2-CPU
// host under `go test ./...` (3 of 41 runs over the limit); the median
// of pairs read 1.07x–1.08x under the same load, and 1.81x–1.84x with an
// n-sized exponent added to CheckBound's path.
func TestCheckBoundCost(t *testing.T) {
	costtest.Skip(t)
	h, err := checkBoundCostKey()
	if err != nil {
		t.Fatal(err)
	}
	pk := h.PublicKey()
	ct, err := EncryptInput(pk, 30)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []*he.Ciphertext{ct}
	r := costtest.Ratio(201, func() {
		if ok, err := CheckBound(pk, h, inputs, 40); err != nil || !ok {
			t.Fatalf("CheckBound(30 <= 40) = %v, %v", ok, err)
		}
	}, func() {
		zero, err := pk.EncryptInt(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.SignOfMasked(zero); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("CheckBound over Encrypt(0)+Decrypt: %v", r)
	if r.Median > 1.25 {
		t.Errorf("CheckBound costs %.2fx the re-randomisation and decryption it cannot avoid (limit 1.25x): something on its path raises to an n-sized exponent again", r.Median)
	}
}
