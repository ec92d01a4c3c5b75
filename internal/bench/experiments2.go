package bench

import (
	"fmt"
	"math/big"
	"sync"
	"time"

	"prever/internal/chain"
	"prever/internal/commit"
	"prever/internal/core"
	"prever/internal/dp"
	"prever/internal/group"
	"prever/internal/ledger"
	"prever/internal/merkle"
	"prever/internal/netsim"
	"prever/internal/pir"
	"prever/internal/token"
	"prever/internal/zk"
)

func bigFromBytes(b []byte) *big.Int { return new(big.Int).SetBytes(b) }

var (
	zkParamsOnce sync.Once
	zkParamsVal  *commit.Params
)

func zkParams() *commit.Params {
	zkParamsOnce.Do(func() { zkParamsVal = commit.NewParams(group.TestGroup()) })
	return zkParamsVal
}

// E5Integrity measures the cost of stored-data integrity (RC4): digest
// computation, inclusion proofs, consistency proofs and full audits as the
// ledger grows. Expected shape: proof generation/verification logarithmic
// in ledger size; audits linear.
func E5Integrity(scale Scale) (*Table, error) {
	sizes := []int{1024, 4096, 16384}
	if scale == Full {
		sizes = append(sizes, 65536)
	}
	t := &Table{
		ID:     "E5",
		Title:  "Ledger integrity: proofs and audits vs journal size",
		Header: []string{"entries", "digest", "prove-incl", "verify-incl", "prove+verify-cons", "full-audit", "proof-size"},
	}
	for _, n := range sizes {
		l := ledger.New()
		for i := 0; i < n; i++ {
			if _, err := l.Put(fmt.Sprintf("k%06d", i), []byte("v"), "bench", ""); err != nil {
				return nil, err
			}
		}
		d := l.Digest()

		reps := 50
		start := time.Now()
		for i := 0; i < reps; i++ {
			_ = l.Digest()
		}
		digestT := time.Since(start)

		var proof ledger.InclusionProof
		start = time.Now()
		for i := 0; i < reps; i++ {
			var err error
			proof, err = l.ProveInclusion(uint64((i*131)%n), 0)
			if err != nil {
				return nil, err
			}
		}
		proveT := time.Since(start)

		start = time.Now()
		for i := 0; i < reps; i++ {
			if err := ledger.VerifyInclusion(proof, d); err != nil {
				return nil, err
			}
		}
		verifyT := time.Since(start)

		oldSize := n / 2
		oldDigest := ledger.Digest{Size: oldSize, Root: merkleRootAt(l, oldSize)}
		start = time.Now()
		for i := 0; i < reps; i++ {
			p, err := l.ProveConsistency(oldSize, 0)
			if err != nil {
				return nil, err
			}
			if err := ledger.VerifyConsistency(p, oldDigest, d); err != nil {
				return nil, err
			}
		}
		consT := time.Since(start)

		start = time.Now()
		rep := ledger.Audit(l.Export(), d)
		auditT := time.Since(start)
		if !rep.Clean() {
			return nil, fmt.Errorf("bench: clean ledger failed audit")
		}

		proofBytes := len(proof.Proof.Path) * merkle.HashSize
		t.AddRow(fmt.Sprint(n),
			perOp(reps, digestT), perOp(reps, proveT), perOp(reps, verifyT),
			perOp(reps, consT), auditT.Round(time.Millisecond).String(),
			fmt.Sprintf("%d B", proofBytes))
	}
	return t, nil
}

// merkleRootAt recomputes the root of the ledger's first n entries the
// way an auditor who saved an old digest would have seen it: from the
// exported journal prefix, whose entry hashes are the Merkle leaves.
func merkleRootAt(l *ledger.Ledger, n int) merkle.Hash {
	entries := l.Export()[:n]
	tree := merkle.New()
	for i := range entries {
		tree.Append(entries[i].EntryHash[:])
	}
	return tree.Root()
}

// E6PIR measures private reads and updates on public data (RC3) as the
// database grows. Expected shape: PIR reads linear in database size (the
// information-theoretic 2-server scheme touches every block), updates
// constant.
func E6PIR(scale Scale) (*Table, error) {
	sizes := []int{1024, 4096, 16384}
	if scale == Full {
		sizes = append(sizes, 65536)
	}
	t := &Table{
		ID:     "E6",
		Title:  "Two-server PIR on public data: private read vs update vs plain read",
		Notes:  "64-byte blocks",
		Header: []string{"rows", "private-read", "update", "plain-read"},
	}
	for _, n := range sizes {
		db, err := pir.NewDatabase(64)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if err := db.Update(i, []byte(fmt.Sprintf("row-%06d", i))); err != nil {
				return nil, err
			}
		}
		reps := 20
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := db.PrivateRead((i*977)%n, nil); err != nil {
				return nil, err
			}
		}
		readT := time.Since(start)

		start = time.Now()
		for i := 0; i < reps; i++ {
			if err := db.Update((i*977)%n, []byte("updated")); err != nil {
				return nil, err
			}
		}
		updateT := time.Since(start)

		s0, _ := db.Servers()
		start = time.Now()
		for i := 0; i < reps; i++ {
			if _, err := s0.Block((i * 977) % n); err != nil {
				return nil, err
			}
		}
		plainT := time.Since(start)

		t.AddRow(fmt.Sprint(n), perOp(reps, readT), perOp(reps, updateT), perOp(reps, plainT))
	}
	return t, nil
}

// E7DP measures the paper's warning that "naive uses of differential
// privacy lead to rapidly exhausting the limited privacy budget,
// especially when updates come at a high rate": updates absorbed until
// exhaustion under the naive per-update policy vs batched policies, and
// the accuracy each provides.
func E7DP(scale Scale) (*Table, error) {
	budget := 1.0
	epsPerPub := 0.01
	if scale == Full {
		budget = 2.0
	}
	t := &Table{
		ID:     "E7",
		Title:  "DP index refresh policies: budget exhaustion under update streams",
		Notes:  fmt.Sprintf("total ε=%.1f, ε=%.2f per publication, domain 1000, 100 buckets", budget, epsPerPub),
		Header: []string{"policy", "updates-absorbed", "publications", "mean-abs-err"},
	}
	type policy struct {
		name   string
		p      dp.RefreshPolicy
		batch  int
		window int
		capN   int // inserts attempted (WindowReset never exhausts)
	}
	policies := []policy{
		{"per-update (naive)", dp.PerUpdate, 0, 0, 1_000_000},
		{"batched W=10", dp.Batched, 10, 0, 1_000_000},
		{"batched W=100", dp.Batched, 100, 0, 1_000_000},
		{"window-reset E=100 (per-epoch ε)", dp.WindowReset, 0, 100, 50_000},
	}
	for _, pol := range policies {
		acct, err := dp.NewAccountant(budget)
		if err != nil {
			return nil, err
		}
		idx, err := dp.NewIndex(dp.IndexConfig{
			Domain: 1000, Buckets: 100, EpsPerPub: epsPerPub,
			Policy: pol.p, BatchSize: pol.batch, WindowSize: pol.window,
			Accountant: acct,
		})
		if err != nil {
			return nil, err
		}
		absorbed := 0
		for i := 0; i < pol.capN; i++ {
			if err := idx.Insert(int64(i % 1000)); err != nil {
				break
			}
			absorbed++
		}
		// Accuracy: mean abs error over 10 range queries.
		totalErr := 0.0
		for q := 0; q < 10; q++ {
			lo, hi := int64(q*100), int64((q+1)*100)
			got := idx.RangeCount(lo, hi)
			want := float64(idx.TrueRangeCount(lo, hi))
			diff := got - want
			if diff < 0 {
				diff = -diff
			}
			totalErr += diff
		}
		absorbedLabel := fmt.Sprint(absorbed)
		if pol.p == dp.WindowReset && absorbed == pol.capN {
			absorbedLabel = fmt.Sprintf(">=%d (unbounded)", absorbed)
		}
		t.AddRow(pol.name, absorbedLabel, fmt.Sprint(idx.Publications()), fmt.Sprintf("%.1f", totalErr/10))
	}
	return t, nil
}

// E8Adversary injects the adversarial behaviours of §3.3 and reports
// whether (and how fast) each is detected. Every attack must be caught.
func E8Adversary(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "Adversarial injections: detection coverage",
		Header: []string{"attack", "detected-by", "detected", "detection-time"},
	}
	addResult := func(attack, by string, detected bool, d time.Duration) {
		yes := "YES"
		if !detected {
			yes = "NO (!!)"
		}
		t.AddRow(attack, by, yes, d.Round(time.Microsecond).String())
	}

	// 1. Malicious manager rewrites a journal entry.
	{
		l := ledger.New()
		for i := 0; i < 1000; i++ {
			if _, err := l.Put(fmt.Sprintf("k%d", i), []byte("v"), "", ""); err != nil {
				return nil, err
			}
		}
		d := l.Digest()
		entries := l.Export()
		entries[500].Value = []byte("rewritten")
		start := time.Now()
		rep := ledger.Audit(entries, d)
		addResult("ledger entry rewrite", "journal audit", !rep.Clean(), time.Since(start))
	}

	// 2. Malicious manager forks history after a digest was saved.
	{
		l := ledger.New()
		for i := 0; i < 100; i++ {
			if _, err := l.Put(fmt.Sprintf("k%d", i), []byte("v"), "", ""); err != nil {
				return nil, err
			}
		}
		saved := l.Digest()
		fork := ledger.New()
		for i := 0; i < 100; i++ {
			if _, err := fork.Put(fmt.Sprintf("k%d", i), []byte("forged"), "", ""); err != nil {
				return nil, err
			}
		}
		for i := 100; i < 150; i++ {
			if _, err := fork.Put(fmt.Sprintf("k%d", i), []byte("v"), "", ""); err != nil {
				return nil, err
			}
		}
		p, err := fork.ProveConsistency(100, 0)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		verr := ledger.VerifyConsistency(p, saved, fork.Digest())
		addResult("forked ledger history", "consistency proof", verr != nil, time.Since(start))
	}

	// 3. Double-spent token across platforms.
	{
		auth, err := token.NewAuthority(1024, nil)
		if err != nil {
			return nil, err
		}
		w, _ := token.NewWallet(auth.PublicKey(), "p", 1, nil)
		sigs, _ := auth.IssueBudget("w", "p", w.BlindedRequests(), 10)
		if err := w.Finalize(sigs); err != nil {
			return nil, err
		}
		tok, _ := w.Next()
		store := token.NewMemorySpentStore()
		if err := token.Spend(auth.PublicKey(), store, tok, "p"); err != nil {
			return nil, err
		}
		start := time.Now()
		err = token.Spend(auth.PublicKey(), store, tok, "p")
		addResult("token double spend", "shared spent store", err == token.ErrDoubleSpend, time.Since(start))

		// 4. Forged token.
		forged := token.Token{Serial: "00ff", Period: "p", Sig: big.NewInt(99)}
		start = time.Now()
		err = token.Spend(auth.PublicKey(), store, forged, "p")
		addResult("forged token signature", "blind-sig verification", err == token.ErrBadSignature, time.Since(start))
	}

	// 5. Forged ZK bound proof (value above the bound).
	{
		params := zkParams()
		c, o, err := params.CommitInt(50, nil)
		if err != nil {
			return nil, err
		}
		// An honest prover cannot even produce the proof; a cheater reuses
		// a proof for a different commitment.
		cOK, oOK, _ := params.CommitInt(10, nil)
		pr, err := zk.ProveBound(params, cOK, oOK, big.NewInt(40), "e8", nil)
		if err != nil {
			return nil, err
		}
		_ = o
		start := time.Now()
		verr := zk.VerifyBound(params, c, big.NewInt(40), pr, "e8")
		addResult("transplanted ZK bound proof", "proof verification", verr != nil, time.Since(start))
	}

	// 6. Equivocating blockchain block (tampered after commit).
	{
		net := netsim.New(netsim.Config{})
		s, err := chain.NewShard(net, chain.ShardConfig{Name: "e8", F: 1, Timeout: 10 * time.Second})
		if err != nil {
			net.Close()
			return nil, err
		}
		for i := 0; i < 10; i++ {
			if res := <-s.SubmitAsync(chain.Tx{Kind: chain.TxPut, Key: fmt.Sprintf("k%d", i), Value: []byte("v")}); res.Err != nil {
				net.Close()
				return nil, res.Err
			}
		}
		blocks := s.Peers()[0].Blocks()
		blocks[4].Txs[0].Value = []byte("equivocated")
		start := time.Now()
		bad, _ := chain.VerifyBlocks(blocks)
		addResult("tampered chain block", "block verification", bad == 4, time.Since(start))
		net.Close()
	}

	// 7. Over-budget update under every RC1/RC2 engine (covert producer).
	{
		setupT := time.Now()
		params := zkParams()
		m, err := core.NewZKBoundManager("e8-zk", params, 10)
		if err != nil {
			return nil, err
		}
		owner := core.NewZKOwner(params, "e8-zk", 10)
		u, _ := owner.ProduceUpdate("t1", "w", "w", 10)
		if _, err := m.SubmitZK(u); err != nil {
			return nil, err
		}
		_, err = owner.ProduceUpdate("t2", "w", "w", 1)
		addResult("over-budget update (zk engine)", "owner/prover refusal", err != nil, time.Since(setupT))
	}
	return t, nil
}
