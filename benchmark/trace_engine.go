package main

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"path/filepath"
	"time"

	"prever/internal/commit"
	"prever/internal/core"
	"prever/internal/he"
	"prever/internal/mpc"
	"prever/internal/store"
	"prever/internal/zk"
)

// zkStatements rebuilds, for corpus[lo:hi], what the manager verifies: each
// update's proof against the group's running commitment after it, bound
// to the manager's context string. The context format is the one
// internal/core uses (proofContext); if that changes, these standalone
// verifications fail and say so.
func (c *zkCorpus) zkStatements(lo, hi int) (cs []commit.Commitment, proofs []zk.BoundProof, ctxs []string) {
	running := map[string]commit.Commitment{}
	for _, u := range c.updates[lo:hi] {
		cur, ok := running[u.Group]
		if !ok {
			cur = c.params.CommitPublic(big.NewInt(0))
		}
		cur = c.params.Add(cur, u.C)
		running[u.Group] = cur
		cs = append(cs, cur)
		proofs = append(proofs, u.Proof)
		ctxs = append(ctxs, "prever/zkbound/"+zkName+"/"+u.Group+"/"+u.ID)
	}
	return cs, proofs, ctxs
}

// minLayerShare is the least share of an engine workload's span its own
// layers must account for when measured alone. The expectation is 70 % and
// more (zk reads 0.80-0.93, he+mpc 0.69-1.05); the two sides are timed
// seconds apart on a host whose speed wanders by 20 %, so the check only
// catches a workload that has stopped exercising its layer.
const minLayerShare = 0.5

func proofBytes(p zk.BoundProof) int {
	n := 0
	for _, rp := range []zk.RangeProof{p.Low, p.High} {
		for _, b := range rp.Bits {
			n += len(b.Bytes())
		}
		for _, bp := range rp.BitProofs {
			for _, v := range []*big.Int{bp.A0, bp.A1, bp.C0, bp.C1, bp.Z0, bp.Z1} {
				n += len(v.Bytes())
			}
		}
	}
	return n
}

func allNil(errs []error, err error) error {
	if err != nil {
		return err
	}
	for i, e := range errs {
		if e != nil {
			return fmt.Errorf("proof %d: %w", i, e)
		}
	}
	return nil
}

// traceZK adds the per-layer view of engine_zk: the SubmitZKBatch spans
// against the same proofs verified by zk alone, the failure path of the
// fold, and the group, commit and ledger leaves beneath.
func traceZK(cfg runCfg, r *report, c *zkCorpus, run *engineRun, last *core.ZKBoundManager, rec *recorder) error {
	var span time.Duration
	var updates int
	for _, s := range run.samples {
		span += s.end - s.start
		updates += s.ops
	}
	perUpdate := ms(span) / float64(updates)
	r.set("core.zk_ms_per_update", perUpdate)
	if st := last.Stats(); st.Submitted > 0 {
		r.set("core.zk_batch_verified_frac", float64(st.BatchVerified)/float64(st.Submitted))
	}
	bound := big.NewInt(zkBound)

	// zk alone, in the engine's shape: the calls' groups verified
	// concurrently, one fold per group.
	start := time.Now()
	for lo := 0; lo < len(c.updates); lo += callSize {
		hi := min(lo+callSize, len(c.updates))
		t0 := time.Since(start)
		groups := (hi - lo + c.perGroup - 1) / c.perGroup
		err := parallel(cfg.workers, groups, func(g int) error {
			glo := lo + g*c.perGroup
			cs, proofs, ctxs := c.zkStatements(glo, min(glo+c.perGroup, hi))
			return allNil(zk.VerifyBoundBatch(c.params, cs, bound, proofs, ctxs, nil))
		})
		if err != nil {
			return fmt.Errorf("standalone zk.VerifyBoundBatch: %w", err)
		}
		rec.add("zk.VerifyBoundBatch", 0, lo/callSize, t0, time.Since(start))
	}
	alone := ms(time.Since(start)) / float64(len(c.updates))
	r.set("core.zk_self_ms_per_update", max(0, perUpdate-alone))
	zkShare := alone / perUpdate

	// One group on one core: the batch fold against one proof at a time.
	cs, proofs, ctxs := c.zkStatements(0, c.perGroup)
	start = time.Now()
	if err := allNil(zk.VerifyBoundBatch(c.params, cs, bound, proofs, ctxs, nil)); err != nil {
		return err
	}
	batchMS := ms(time.Since(start)) / float64(len(proofs))
	start = time.Now()
	for i := range proofs {
		if err := zk.VerifyBound(c.params, cs[i], bound, proofs[i], ctxs[i]); err != nil {
			return err
		}
	}
	seqMS := ms(time.Since(start)) / float64(len(proofs))
	r.set("zk.verify_bound_batch_ms_per_proof", batchMS)
	r.set("zk.verify_bound_seq_ms_per_proof", seqMS)
	r.set("zk.batch_speedup_x", seqMS/batchMS)
	r.set("zk.prove_bound_ms", c.proveMS)
	r.set("zk.proof_bytes", float64(proofBytes(c.updates[0].Proof)))

	// The failure path: the whole corpus in one fold with one bad proof,
	// which the verifier has to bisect down to.
	cs, proofs, ctxs = c.zkStatements(0, len(c.updates))
	bad := len(proofs) / 2
	proofs[bad] = c.updates[0].Proof
	start = time.Now()
	errs, err := zk.VerifyBoundBatch(c.params, cs, bound, proofs, ctxs, nil)
	r.set("zk.bisect_ms", ms(time.Since(start)))
	if err != nil {
		return err
	}
	for i, e := range errs {
		if (e != nil) != (i == bad) {
			return fmt.Errorf("bisect: proof %d error=%v, only proof %d is bad", i, e, bad)
		}
	}

	// The leaves under zk.
	g := c.params.Group
	const terms = 64
	bases, exps := make([]*big.Int, terms), make([]*big.Int, terms)
	for i := range bases {
		var err error
		if bases[i], err = g.RandElement(rand.Reader); err != nil {
			return err
		}
		if exps[i], err = rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128)); err != nil {
			return err
		}
	}
	start = time.Now()
	if _, err := g.MultiExp(bases, exps); err != nil {
		return err
	}
	r.set("group.multiexp_us_per_term", us(time.Since(start))/terms)
	fb := g.NewFixedBase(c.params.G)
	scalar, err := g.RandScalar(rand.Reader)
	if err != nil {
		return err
	}
	const reps = 32
	start = time.Now()
	for i := 0; i < reps; i++ {
		fb.Exp(scalar)
	}
	r.set("group.fixedbase_exp_us", us(time.Since(start))/reps)
	start = time.Now()
	for i := 0; i < reps; i++ {
		if !g.Contains(bases[i]) {
			return fmt.Errorf("group.Contains rejects a group element")
		}
	}
	r.set("group.contains_us", us(time.Since(start))/reps)
	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, _, err := c.params.CommitInt(int64(i), nil); err != nil {
			return err
		}
	}
	r.set("commit.commit_us", us(time.Since(start))/reps)

	// The non-private baseline: the same values under the same bound.
	plainUS, err := plainSumBound(c)
	if err != nil {
		return err
	}
	r.set("core.plain_us_per_update", plainUS)
	r.set("core.zk_overhead_x", perUpdate*1000/plainUS)

	r.check(checkOf("layers", errIf(zkShare < minLayerShare, "zk alone is %.0f%% of the SubmitZKBatch span: the workload no longer exercises zk", zkShare*100)))
	r.Notes["zk_share_of_span"] = fmt.Sprintf("%.3f", zkShare)
	r.Budget, _ = budget([]budgetRow{
		{Layer: "core", Span: zkSpan, SpanUS: perUpdate * 1000},
		{Layer: "zk+group+commit", Span: "zk.VerifyBoundBatch", SpanUS: alone * 1000},
	})
	if err := ledgerLeaf(2*len(c.updates[0].C.Bytes()), r); err != nil {
		return err
	}
	return writeTrace("engine_zk", cfg, rec, r.Budget)
}

// plainSumBound runs the zk corpus's plaintext values through
// core.PlainManager under the same per-group bound.
func plainSumBound(c *zkCorpus) (float64, error) {
	plain := core.NewPlainManager("plain", nil)
	plain.AddTable(store.NewTable("t", store.MustSchema(
		store.Column{Name: "g", Kind: store.KindString},
		store.Column{Name: "v", Kind: store.KindInt},
	)))
	cons, err := core.NewConstraint("cap", fmt.Sprintf("SUM(t.v WHERE t.g = u.g) + u.v <= %d", zkBound), core.Regulation, core.Public, "bench")
	if err != nil {
		return 0, err
	}
	plain.AddConstraint(cons)
	start := time.Now()
	for i, u := range c.updates {
		rcpt, err := plain.Submit(core.Update{
			ID: u.ID, Table: "t", Key: u.ID,
			Row: store.Row{"g": store.String_(u.Group), "v": store.Int(c.values[i])},
		})
		if err != nil {
			return 0, err
		}
		if !rcpt.Accepted {
			return 0, fmt.Errorf("plain baseline rejects honest update %s", u.ID)
		}
	}
	return us(time.Since(start)) / float64(len(c.updates)), nil
}

// traceHE adds the per-layer view of engine_he: the SubmitEncryptedBatch
// spans against one masked bound check by mpc alone, and the Paillier
// operations beneath.
func traceHE(cfg runCfg, r *report, c *heCorpus, run *engineRun, rec *recorder) error {
	var span time.Duration
	var updates int
	for _, s := range run.samples {
		span += s.end - s.start
		updates += s.ops
	}
	perUpdate := ms(span) / float64(updates)
	r.set("core.he_ms_per_update", perUpdate)
	r.set("core.plain_us_per_update", c.plainUS)
	r.set("core.he_overhead_x", perUpdate*1000/c.plainUS)
	r.set("he.encrypt_ms", c.encryptMS)

	pk := c.helper.PublicKey()
	const reps = 32
	// One masked comparison, as the manager runs it per update: the
	// homomorphic fold, the mask, and the helper's decryption.
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		s := time.Since(t0)
		if _, err := mpc.CheckBound(pk, c.helper, []*he.Ciphertext{c.updates[i%len(c.updates)].Enc["hours"]}, 40); err != nil {
			return err
		}
		rec.add("mpc.CheckBound", 0, i, s, time.Since(t0))
	}
	checkMS := ms(time.Since(t0)) / reps
	r.set("mpc.check_bound_ms", checkMS)
	r.set("core.he_self_ms_per_update", max(0, perUpdate-checkMS))
	heShare := checkMS / perUpdate

	ct := c.updates[0].Enc["hours"]
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := c.helper.SignOfMasked(ct); err != nil {
			return err
		}
	}
	r.set("mpc.sign_oracle_ms", ms(time.Since(start))/reps)
	start = time.Now()
	acc := pk.EncryptZeroDeterministic()
	for i := 0; i < 1024; i++ {
		acc = pk.Add(acc, ct)
	}
	r.set("he.add_us", us(time.Since(start))/1024)
	r.set("he.ciphertext_bytes", float64(len(ct.C.Bytes())))
	sk, err := he.GenerateKey(heBits, rand.Reader)
	if err != nil {
		return err
	}
	own, err := sk.PublicKey.EncryptInt(7, nil)
	if err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		if v, err := sk.DecryptInt(own); err != nil || v != 7 {
			return fmt.Errorf("he.Decrypt: got %d, %v", v, err)
		}
	}
	r.set("he.decrypt_ms", ms(time.Since(start))/reps)

	r.check(checkOf("layers", errIf(heShare < minLayerShare, "he+mpc alone are %.0f%% of the SubmitEncryptedBatch span: the workload no longer exercises them", heShare*100)))
	r.Notes["he_mpc_share_of_span"] = fmt.Sprintf("%.3f", heShare)
	r.Budget, _ = budget([]budgetRow{
		{Layer: "core", Span: heSpan, SpanUS: perUpdate * 1000},
		{Layer: "he+mpc", Span: "mpc.CheckBound", SpanUS: checkMS * 1000},
	})
	if err := ledgerLeaf(len(ct.C.Bytes())+40, r); err != nil {
		return err
	}
	return writeTrace("engine_he", cfg, rec, r.Budget)
}

// writeTrace writes the run's spans and counts, kept in memory until now.
func writeTrace(name string, cfg runCfg, rec *recorder, rows []budgetRow) error {
	return writeJSON(filepath.Join(cfg.outDir, "trace-"+name+".json"), map[string]any{
		"workload": name, "seed": cfg.seed, "spans": rec.spans, "counts": rec.counts, "budget": rows,
	})
}
