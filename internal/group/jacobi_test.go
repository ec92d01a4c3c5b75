package group

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// checkJacobi compares the kernel and its wrapper with math/big.Jacobi
// on one (a, n), n odd. It reports whether the kernel itself answered
// (false = operands too wide, or the batch cap was hit and the wrapper
// fell back).
func checkJacobi(t *testing.T, a, n *big.Int) bool {
	t.Helper()
	want := big.Jacobi(a, n)
	j, ok := jacobiKernel(a.Bits(), n.Bits())
	if ok && j != want {
		t.Fatalf("jacobiKernel(%v / %v) = %d, big.Jacobi = %d", a, n, j, want)
	}
	if got := jacobi(a, n); got != want {
		t.Fatalf("jacobi(%v / %v) = %d, big.Jacobi = %d", a, n, got, want)
	}
	return ok
}

// checkContains compares Contains with its definition, 0 < x < P and
// big.Jacobi(x, P) == 1.
func checkContains(t *testing.T, g *Group, x *big.Int) {
	t.Helper()
	want := x.Sign() > 0 && x.Cmp(g.P) < 0 && big.Jacobi(x, g.P) == 1
	if got := g.Contains(x); got != want {
		t.Fatalf("Contains(%v) = %v, want %v (P = %v)", x, got, want, g.P)
	}
}

// jacobiEdgeValues are the numerators every kernel test and the fuzz
// seed corpus share: the range boundaries of Contains, powers of two
// and their predecessors on limb boundaries, long runs of trailing
// zeros (the halving path at its longest) and all-ones limbs (the
// carry chains of jacobiApply at their longest).
func jacobiEdgeValues(g *Group) []*big.Int {
	vs := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(4),
		new(big.Int).Sub(g.P, one), new(big.Int).Set(g.P), new(big.Int).Add(g.P, one),
		new(big.Int).Set(g.Q), new(big.Int).Set(g.G),
	}
	for _, k := range []uint{31, 32, 62, 63, 64, 65, 127, 128, 129, 1024, 2047, 2048, 4096} {
		pow := new(big.Int).Lsh(one, k)
		vs = append(vs, pow, new(big.Int).Sub(pow, one), new(big.Int).Add(pow, one))
	}
	for _, z := range []uint{64, 65, 128, 1000} {
		vs = append(vs,
			new(big.Int).Lsh(big.NewInt(3), z),
			new(big.Int).Lsh(new(big.Int).Rsh(g.Q, z+7), z))
	}
	ones := new(big.Int).Sub(new(big.Int).Lsh(one, 64), one)
	alt := new(big.Int)
	for i := 0; i < 16; i++ {
		alt.Lsh(alt, 128).Or(alt, ones) // limbs alternate all-ones / zero
	}
	return append(vs, alt, new(big.Int).Lsh(alt, 64))
}

// jacobiEdgeModuli are odd moduli for the raw kernel: both shipped
// primes, composites sharing factors with the edge numerators (the
// symbol must be 0), and moduli on limb boundaries.
func jacobiEdgeModuli() []*big.Int {
	ms := []*big.Int{
		MODP2048().P, TestGroup().P, big.NewInt(1), big.NewInt(3), big.NewInt(15),
		big.NewInt(3 * 5 * 7 * 11 * 13), new(big.Int).Mul(MODP2048().Q, big.NewInt(3)),
	}
	for _, k := range []uint{64, 128, 2048} {
		pow := new(big.Int).Lsh(one, k)
		ms = append(ms, new(big.Int).Sub(pow, one), new(big.Int).Add(pow, one))
	}
	return ms
}

// TestJacobiKernelSmallExhaustive: every (a, n) with odd n < 300,
// including a >= n and gcd(a, n) != 1.
func TestJacobiKernelSmallExhaustive(t *testing.T) {
	for n := int64(1); n < 300; n += 2 {
		for a := int64(0); a < 2*n+3; a++ {
			if !checkJacobi(t, big.NewInt(a), big.NewInt(n)) {
				t.Fatalf("kernel gave up on (%d / %d)", a, n)
			}
		}
	}
}

// TestJacobiKernelCommonFactor: gcd(a, n) > 1 must give 0 at full
// width, where f and g converge on the common factor instead of 1.
func TestJacobiKernelCommonFactor(t *testing.T) {
	limit := new(big.Int).Lsh(one, 1024)
	for i := 0; i < 200; i++ {
		d, _ := rand.Int(rand.Reader, limit)
		a, _ := rand.Int(rand.Reader, limit)
		n, _ := rand.Int(rand.Reader, limit)
		d.SetBit(d, 0, 1).Add(d, two) // odd, >= 3
		n.SetBit(n, 0, 1)
		a.Mul(a, d)
		n.Mul(n, d)
		if j, ok := jacobiKernel(a.Bits(), n.Bits()); !ok || j != 0 {
			t.Fatalf("jacobiKernel = %d, ok = %v with common factor %v; want 0, true", j, ok, d)
		}
	}
}

// TestJacobiKernelNeverHitsCap: on the shipped group the kernel always
// answers by itself — 10⁴ random elements and every edge value finish
// inside the batch cap — so Contains's big.Jacobi fallback is dead code
// for MODP2048. The first thousand are also compared with big.Jacobi.
func TestJacobiKernelNeverHitsCap(t *testing.T) {
	g := MODP2048()
	for _, x := range jacobiEdgeValues(g) {
		if x.BitLen() <= jacobiLimbs*64 && !checkJacobi(t, x, g.P) {
			t.Fatalf("kernel gave up on edge value %v", x)
		}
	}
	for i := 0; i < 10000; i++ {
		x, err := rand.Int(rand.Reader, g.P)
		if err != nil {
			t.Fatal(err)
		}
		if i < 1000 {
			checkContains(t, g, x)
		}
		if _, ok := jacobiKernel(x.Bits(), g.P.Bits()); !ok {
			t.Fatalf("kernel hit its batch cap on %v", x)
		}
	}
}

// TestJacobiFallsBack: the wrapper answers from math/big.Jacobi when
// the kernel declines — operands wider than the fixed buffers, and
// sparse operands, which converge three times slower than dense ones
// (no worst-case bound is known for add-only steps) and run into the
// batch cap. A dense modulus of exactly the buffer width stays inside.
func TestJacobiFallsBack(t *testing.T) {
	p, q := MODP2048().P, MODP2048().Q
	full := new(big.Int).Mul(p, p) // 4096 bits
	if full.BitLen() != jacobiLimbs*64 || !checkJacobi(t, new(big.Int).Mul(q, q), full) {
		t.Fatal("kernel gave up on a dense modulus that fits its buffers exactly")
	}
	wide := new(big.Int).Lsh(full, 64)
	wide.Add(wide, one)
	if checkJacobi(t, q, wide) {
		t.Fatal("kernel answered for a modulus wider than its buffers")
	}
	sparse := new(big.Int).Lsh(one, 2047)
	sparse.Add(sparse, big.NewInt(12345))
	if checkJacobi(t, new(big.Int).Rsh(sparse, 3), sparse) {
		t.Fatal("sparse operands converged inside the cap: this test no longer covers the cap path")
	}
}

// FuzzContains is the differential fuzz of the membership check
// (ROADMAP 5d: every validator at a trust boundary is fuzzed): Contains
// against its definition on both shipped groups, and the raw kernel
// against math/big.Jacobi on an arbitrary odd modulus, including
// numerators above the modulus and gcd != 1.
func FuzzContains(f *testing.F) {
	groups := []*Group{MODP2048(), TestGroup()}
	for _, n := range jacobiEdgeModuli() {
		for _, x := range jacobiEdgeValues(MODP2048()) {
			f.Add(x.Bytes(), n.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, xb, nb []byte) {
		if len(xb) > 600 || len(nb) > 600 {
			t.Skip("wider than any shipped modulus and the kernel's buffers")
		}
		x := new(big.Int).SetBytes(xb)
		for _, g := range groups {
			checkContains(t, g, x)
		}
		if p := groups[0].P; x.Cmp(p) < 0 {
			if _, ok := jacobiKernel(x.Bits(), p.Bits()); !ok {
				t.Fatalf("kernel hit its batch cap on MODP2048 input %v: raise jacobiBatchCap", x)
			}
		}
		n := new(big.Int).SetBytes(nb)
		n.SetBit(n, 0, 1)
		checkJacobi(t, x, n)
	})
}

func BenchmarkContainsMODP2048(b *testing.B) {
	g := MODP2048()
	x, err := g.RandElement(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.Contains(x) {
			b.Fatal("Contains rejects a group element")
		}
	}
}
