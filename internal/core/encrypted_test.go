package core

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"time"

	"prever/internal/constraint"
	"prever/internal/he"
	"prever/internal/ledger"
	"prever/internal/mpc"
	"prever/internal/store"
)

func boundSpec(t testing.TB, name, source string) *BoundSpec {
	t.Helper()
	form, ok := constraint.CompileBound(constraint.MustParse(source))
	if !ok {
		t.Fatalf("%q is not a linear bound", source)
	}
	spec, err := DeriveBoundSpec(name, form)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEncryptedManagerAgreesWithPlainOnSignedBounds replays a seeded trace
// of signed values through PlainManager and EncryptedManager under bounds
// the FLSA rule never reaches: lower bounds with and without an aggregate,
// and negative coefficients in both directions. Every decision must match.
func TestEncryptedManagerAgreesWithPlainOnSignedBounds(t *testing.T) {
	helper, _ := fixtures(t)
	pk := helper.PublicKey()
	for _, tc := range []struct {
		name, source string
		upper        bool
	}{
		{"floor/windowed-aggregate", "SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) + u.hours >= 0", false},
		{"floor/no-aggregate", "2 * u.hours - 5 > 1", false},
		{"floor/negative-coefficients", "40 - SUM(tasks.hours WHERE tasks.worker = u.worker) - u.hours >= 0", false},
		{"floor/mixed-coefficients", "3 * u.hours - 2 * SUM(tasks.hours WHERE tasks.worker = u.worker) >= -12", false},
		{"ceiling/negative-coefficients", "2 * SUM(tasks.hours WHERE tasks.worker = u.worker) - 3 * u.hours <= 12", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := boundSpec(t, "rule", tc.source)
			if spec.Upper != tc.upper {
				t.Fatalf("spec.Upper = %v for %q", spec.Upper, tc.source)
			}
			encM, err := NewEncryptedManager("enc", pk, helper, spec)
			if err != nil {
				t.Fatal(err)
			}
			plain := NewPlainManager("plain", nil)
			plain.AddTable(store.NewTable("tasks", coreTaskSchema))
			c, err := NewConstraint("rule", tc.source, Regulation, Public, "dol")
			if err != nil {
				t.Fatal(err)
			}
			plain.AddConstraint(c)

			rng := rand.New(rand.NewSource(20))
			accepts, rejects := 0, 0
			for i := 0; i < 60; i++ {
				id := fmt.Sprintf("t%d", i)
				worker := fmt.Sprintf("w%d", rng.Intn(3))
				hours := int64(rng.Intn(23) - 10) // [-10, 12]
				ts := tBase().Add(time.Duration(i) * 7 * time.Hour)
				pr, err := plain.Submit(taskUpdate(id, worker, hours, ts))
				if err != nil {
					t.Fatal(err)
				}
				er, err := encM.SubmitEncrypted(encUpdate(t, pk, id, worker, hours, ts))
				if err != nil {
					t.Fatal(err)
				}
				if pr.Accepted != er.Accepted {
					t.Fatalf("update %d (%s, %d h): plain=%v encrypted=%v", i, worker, hours, pr.Accepted, er.Accepted)
				}
				if er.Accepted {
					accepts++
				} else {
					rejects++
				}
			}
			if accepts == 0 || rejects == 0 {
				t.Fatalf("trace decides nothing: %d accepted, %d rejected", accepts, rejects)
			}
			l := encM.Ledger()
			if rep := ledger.Audit(l.Export(), l.Digest()); !rep.Clean() {
				t.Fatalf("ledger audit: %+v", rep)
			}
		})
	}
}

// countingOracle counts how often the manager reaches the helper.
type countingOracle struct {
	mpc.SignOracle
	calls int
}

func (c *countingOracle) SignOfMasked(ct *he.Ciphertext) (int, error) {
	c.calls++
	return c.SignOracle.SignOfMasked(ct)
}

// TestSubmitEncryptedRejectsMalformedCiphertexts: the producer is
// untrusted, so a ciphertext that is absent or outside (0, n²) is an error
// before the manager computes on it — nothing reaches the ledger, the
// group state or the oracle. A multiple of n is in range (telling it apart
// costs a GCD per update); it dies at the oracle, which cannot decrypt what
// it turns into, and leaves as little behind.
func TestSubmitEncryptedRejectsMalformedCiphertexts(t *testing.T) {
	helper, _ := fixtures(t)
	pk := helper.PublicKey()
	good := func() *big.Int {
		ct, err := pk.EncryptInt(3, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ct.C
	}
	for _, tc := range []struct {
		name          string
		ct            *he.Ciphertext
		reachesOracle bool
	}{
		{"nil ciphertext", nil, false},
		{"nil C", &he.Ciphertext{}, false},
		{"negative", &he.Ciphertext{C: new(big.Int).Neg(good())}, false},
		{"not reduced", &he.Ciphertext{C: new(big.Int).Add(good(), pk.N2)}, false},
		{"zero", &he.Ciphertext{C: new(big.Int)}, false},
		{"multiple of n", &he.Ciphertext{C: new(big.Int).Mul(big.NewInt(12345), pk.N)}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oracle := &countingOracle{SignOracle: helper}
			m, err := NewEncryptedManager("enc", pk, oracle, boundSpec(t, "flsa", flsaSource))
			if err != nil {
				t.Fatal(err)
			}
			if r, err := m.SubmitEncrypted(encUpdate(t, pk, "ok", "w1", 8, tBase())); err != nil || !r.Accepted {
				t.Fatalf("well-formed update: %+v, %v", r, err)
			}
			entries, size, calls := groupEntries(m, "w1"), m.Ledger().Size(), oracle.calls
			submit := func(id, field string) {
				t.Helper()
				u := encUpdate(t, pk, id, "w1", 1, tBase().Add(time.Hour))
				u.Enc[field] = tc.ct
				if r, err := m.SubmitEncrypted(u); err == nil {
					t.Errorf("%s: accepted or decided: %+v", field, r)
				}
				if got := groupEntries(m, "w1"); got != entries {
					t.Errorf("%s: group state grew from %d to %d entries", field, entries, got)
				}
				if got := m.Ledger().Size(); got != size {
					t.Errorf("%s: ledger grew from %d to %d entries", field, size, got)
				}
				if oracle.calls != calls && !tc.reachesOracle {
					t.Errorf("%s: oracle asked %d times about a malformed update", field, oracle.calls-calls)
				}
			}
			submit("bad", "hours")
			if !tc.reachesOracle {
				// A field no bound reads is anchored all the same.
				submit("extra", "memo")
			}
		})
	}
}

var fuzzHelper = sync.OnceValues(func() (*mpc.Helper, error) { return mpc.NewHelper(128) })

// FuzzEncryptedUpdate hands SubmitEncrypted arbitrary integers as the
// ciphertext of a producer's update. It must never panic; it returns an
// error (and then keeps nothing) or a decision; and what it accepts is
// anchored as exactly the bytes it checked.
func FuzzEncryptedUpdate(f *testing.F) {
	helper, err := fuzzHelper()
	if err != nil {
		f.Fatal(err)
	}
	pk := helper.PublicKey()
	valid, err := pk.EncryptInt(8, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid.C.Bytes(), false)
	f.Add(valid.C.Bytes(), true)
	f.Add([]byte{}, false)
	f.Add([]byte{1}, false)
	f.Add(pk.N.Bytes(), false)
	f.Add(pk.N2.Bytes(), false)
	f.Add(new(big.Int).Add(valid.C, pk.N2).Bytes(), false)
	f.Add(new(big.Int).Sub(pk.N2, big.NewInt(1)).Bytes(), false)
	spec := boundSpec(f, "flsa", flsaSource)
	f.Fuzz(func(t *testing.T, raw []byte, negative bool) {
		c := new(big.Int).SetBytes(raw)
		if negative {
			c.Neg(c)
		}
		m, err := NewEncryptedManager("enc", pk, helper, spec)
		if err != nil {
			t.Fatal(err)
		}
		u := EncryptedUpdate{
			ID: "u", Producer: "w1", Group: "w1", TS: tBase(),
			Enc: map[string]*he.Ciphertext{"hours": {C: new(big.Int).Set(c)}},
		}
		r, err := m.SubmitEncrypted(u)
		if err != nil || !r.Accepted {
			if m.Ledger().Size() != 0 || groupEntries(m, "w1") != 0 {
				t.Fatalf("C=%v: kept state without accepting (%+v, %v)", c, r, err)
			}
			return
		}
		payload, err := m.Ledger().Get("enc/w1/u")
		if err != nil {
			t.Fatalf("C=%v accepted but not in the ledger: %v", c, err)
		}
		_, anchored, ok := bytes.Cut(payload, []byte("\x00hours\x00"))
		if !ok || c.Sign() <= 0 || new(big.Int).SetBytes(anchored).Cmp(c) != 0 {
			t.Fatalf("C=%v accepted; ledger holds %x", c, anchored)
		}
	})
}

// groupEntries counts the aggregate contributions a group value holds,
// summed across constraints.
func groupEntries(m *EncryptedManager, group string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, spec := range m.specs {
		if spec.Agg != nil {
			n += len(m.groups[spec.Name+"/"+group])
		}
	}
	return n
}
