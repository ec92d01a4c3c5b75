package bench

import (
	"fmt"
	"math/big"
	"sync"
	"time"

	"prever/internal/commit"
	"prever/internal/group"
	"prever/internal/he"
	"prever/internal/zk"
)

var (
	prodParamsOnce sync.Once
	prodParamsVal  *commit.Params
)

// prodParams returns commitment parameters over the production-sized
// MODP2048 group (cached: the fixed-base window tables are the
// expensive part of construction).
func prodParams() *commit.Params {
	prodParamsOnce.Do(func() { prodParamsVal = commit.NewParams(group.MODP2048()) })
	return prodParamsVal
}

// E11Crypto measures the amortized-verification primitives (ISSUE 10):
// random-linear-combination batch verification of Σ-proofs against the
// sequential baseline, the Bos–Coster multi-exponentiation against
// one-at-a-time exponentiation, the membership range check against the
// Jacobi test a residue-form group needs, Paillier CRT decryption on its
// own, and Paillier negation by inverse against the n-sized exponent it
// replaced. Each pair shares its inputs, so the speedup column is a
// like-for-like ratio.
func E11Crypto(scale Scale) (*Table, error) {
	nOpen, nBound, nExp, heBits := 16, 4, 16, 512
	if scale == Full {
		nOpen, nBound, nExp, heBits = 64, 8, 64, 1024
	}
	t := &Table{
		ID:     "E11",
		Title:  "Amortized crypto: batched Σ-proof verification and Paillier CRT decryption",
		Notes:  fmt.Sprintf("Σ-proofs and multi-exp over RFC 3526 MODP2048; Paillier %d-bit; speedup = baseline time / amortized time on identical inputs", heBits),
		Header: []string{"primitive", "mode", "ops", "total", "per-op", "speedup"},
	}
	addPair := func(name, baseMode, fastMode string, n int, base, fast time.Duration) {
		t.AddRow(name, baseMode, fmt.Sprintf("%d", n), fmtDur(base), perOp(n, base), "1.0x")
		t.AddRow(name, fastMode, fmt.Sprintf("%d", n), fmtDur(fast), perOp(n, fast),
			fmt.Sprintf("%.1fx", float64(base)/float64(fast)))
	}

	// Opening proofs: n sequential VerifyOpening calls vs one RLC fold.
	p := prodParams()
	cs := make([]commit.Commitment, nOpen)
	prs := make([]zk.OpeningProof, nOpen)
	ctxs := make([]string, nOpen)
	for i := range cs {
		c, o, err := p.CommitInt(int64(i+1), nil)
		if err != nil {
			return nil, err
		}
		ctxs[i] = fmt.Sprintf("e11/open/%d", i)
		pr, err := zk.ProveOpening(p, c, o, ctxs[i], nil)
		if err != nil {
			return nil, err
		}
		cs[i], prs[i] = c, pr
	}
	seqStart := time.Now()
	for i := range prs {
		if err := zk.VerifyOpening(p, cs[i], prs[i], ctxs[i]); err != nil {
			return nil, err
		}
	}
	seq := time.Since(seqStart)
	batchStart := time.Now()
	errs, err := zk.VerifyOpeningBatch(p, cs, prs, ctxs, nil)
	if err != nil {
		return nil, err
	}
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("bench: opening proof %d invalid: %w", i, e)
		}
	}
	addPair("opening verify", "sequential", "batched (RLC fold)", nOpen, seq, time.Since(batchStart))

	// Bound proofs (the engine-facing composite): sequential VerifyBound
	// vs the flattened range/bit fold.
	tp := p
	bound := big.NewInt(40)
	bcs := make([]commit.Commitment, nBound)
	bprs := make([]zk.BoundProof, nBound)
	bctxs := make([]string, nBound)
	for i := range bcs {
		c, o, err := tp.CommitInt(int64(2*i+1), nil)
		if err != nil {
			return nil, err
		}
		bctxs[i] = fmt.Sprintf("e11/bound/%d", i)
		pr, err := zk.ProveBound(tp, c, o, bound, bctxs[i], nil)
		if err != nil {
			return nil, err
		}
		bcs[i], bprs[i] = c, pr
	}
	seqStart = time.Now()
	for i := range bprs {
		if err := zk.VerifyBound(tp, bcs[i], bound, bprs[i], bctxs[i]); err != nil {
			return nil, err
		}
	}
	seq = time.Since(seqStart)
	batchStart = time.Now()
	berrs, err := zk.VerifyBoundBatch(tp, bcs, bound, bprs, bctxs, nil)
	if err != nil {
		return nil, err
	}
	for i, e := range berrs {
		if e != nil {
			return nil, fmt.Errorf("bench: bound proof %d invalid: %w", i, e)
		}
	}
	addPair("bound verify", "sequential", "batched (RLC fold)", nBound, seq, time.Since(batchStart))

	// Paillier CRT decryption (mod p², q²). The textbook c^λ mod n² path
	// it replaced is a test-file oracle now; the before/after pair is the
	// BenchmarkPaillierDecrypt* benchmarks in internal/he.
	sk, err := he.GenerateKey(heBits, nil)
	if err != nil {
		return nil, err
	}
	ct, err := sk.Encrypt(big.NewInt(-123456789), nil)
	if err != nil {
		return nil, err
	}
	const nDec = 16
	crtStart := time.Now()
	for i := 0; i < nDec; i++ {
		if _, err := sk.Decrypt(ct); err != nil {
			return nil, err
		}
	}
	crt := time.Since(crtStart)
	t.AddRow("paillier decrypt", "CRT (mod p², q²)", fmt.Sprint(nDec), fmtDur(crt), perOp(nDec, crt), "—")

	// Paillier negation: the exponent n-1 that encoding -1 into Z_n used
	// to cost against the modular inverse Neg takes now; both encrypt -m.
	nm1 := new(big.Int).Sub(sk.N, big.NewInt(1))
	expStart := time.Now()
	var viaExp *big.Int
	for i := 0; i < nDec; i++ {
		viaExp = new(big.Int).Exp(ct.C, nm1, sk.N2)
	}
	expD := time.Since(expStart)
	invStart := time.Now()
	var viaInv *he.Ciphertext
	for i := 0; i < nDec; i++ {
		if viaInv, err = sk.Neg(ct); err != nil {
			return nil, err
		}
	}
	invD := time.Since(invStart)
	want, err := sk.Decrypt(&he.Ciphertext{C: viaExp})
	if err != nil {
		return nil, err
	}
	if got, err := sk.Decrypt(viaInv); err != nil || got.Cmp(want) != 0 {
		return nil, fmt.Errorf("bench: Neg decrypts to %v (%v), exponent n-1 to %v", got, err, want)
	}
	addPair("paillier negate", "exponent n−1", "inverse mod n²", nDec, expD, invD)

	// Multi-exponentiation: n independent Exp+Mul vs one Bos–Coster chain
	// over the same bases and exponents — at the RLC width, and in the shape
	// the engine's bit fold really has (per bit proof A0^ρ, A1^σ with
	// 128-bit coefficients and C^(ρ·c0+σ·c1) at 257 bits).
	g := p.Group
	multiExpPair := func(name string, n int, width func(i int) uint) error {
		bases := make([]*big.Int, n)
		exps := make([]*big.Int, n)
		for i := range bases {
			b, err := g.RandElement(nil)
			if err != nil {
				return err
			}
			e, err := g.RandScalar(nil)
			if err != nil {
				return err
			}
			bases[i], exps[i] = b, e.Rsh(e, uint(g.Q.BitLen())-width(i))
		}
		naiveStart := time.Now()
		naive := big.NewInt(1)
		for i := range bases {
			naive = g.Mul(naive, g.Exp(bases[i], exps[i]))
		}
		naiveD := time.Since(naiveStart)
		chainStart := time.Now()
		chain, err := g.MultiExp(bases, exps)
		if err != nil {
			return err
		}
		chainD := time.Since(chainStart)
		if naive.Cmp(chain) != 0 {
			return fmt.Errorf("bench: MultiExp disagrees with naive product")
		}
		addPair(name, "per-term Exp", "Bos–Coster chain", n, naiveD, chainD)
		return nil
	}
	if err := multiExpPair("multi-exp (128-bit exps)", nExp, func(int) uint { return 128 }); err != nil {
		return nil, err
	}
	foldShape := func(i int) uint {
		if i%3 == 2 {
			return 257
		}
		return 128
	}
	if err := multiExpPair("multi-exp (bit-fold shape)", 36*nBound, foldShape); err != nil {
		return nil, err
	}

	// Group membership, the per-element pre-check of every verifier: the
	// Jacobi test a residue-form group needs (math/big.Jacobi on the
	// quadratic residue of each element's pair {x, P − x}) vs Contains,
	// the range check of the signed form, on the same elements.
	elems := make([]*big.Int, 39*nBound) // 39 checks per batched update
	twins := make([]*big.Int, len(elems))
	for i := range elems {
		x, err := g.RandElement(nil)
		if err != nil {
			return nil, err
		}
		elems[i], twins[i] = x, x
		if big.Jacobi(x, g.P) != 1 {
			twins[i] = new(big.Int).Sub(g.P, x)
		}
	}
	jacStart := time.Now()
	for _, x := range twins {
		if big.Jacobi(x, g.P) != 1 {
			return nil, fmt.Errorf("bench: big.Jacobi rejects a quadratic residue")
		}
	}
	jacD := time.Since(jacStart)
	conStart := time.Now()
	for _, x := range elems {
		if !g.Contains(x) {
			return nil, fmt.Errorf("bench: Contains rejects a group element")
		}
	}
	addPair("membership", "Jacobi, residue form (QR twin)", "Contains (range check)", len(elems), jacD, time.Since(conStart))

	return t, nil
}
