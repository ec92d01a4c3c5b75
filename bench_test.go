// Root-level benchmarks: one testing.B target per experiment table in
// DESIGN.md §3 / EXPERIMENTS.md. These measure the per-operation costs
// underlying each table; `go run ./cmd/prever-bench -scale full`
// regenerates the full tables (parameter sweeps, rates, shapes).
package prever_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"prever"
	"prever/internal/bench"
	"prever/internal/chain"
	"prever/internal/core"
	"prever/internal/dp"
	"prever/internal/ledger"
	"prever/internal/mpc"
	"prever/internal/netsim"
	"prever/internal/paxos"
	"prever/internal/pbft"
	"prever/internal/pir"
	"prever/internal/store"
	"prever/internal/token"
	"prever/internal/workload"
)

// --- E1: YCSB plain vs ledger vs encrypted -------------------------------

func BenchmarkE1_YCSBA_Plain(b *testing.B) {
	kv := store.NewKV()
	gen, err := workload.NewYCSB(workload.YCSBConfig{Workload: workload.YCSBA, RecordCount: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 100)
	for i := 0; i < 1000; i++ {
		kv.Put(workload.Key(i), val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := gen.Next()
		if op.Type == workload.OpRead {
			if _, err := kv.Get(op.Key); err != nil && err != store.ErrNotFound {
				b.Fatal(err)
			}
		} else {
			kv.Put(op.Key, op.Value)
		}
	}
}

func BenchmarkE1_YCSBA_Ledger(b *testing.B) {
	l := ledger.New()
	gen, err := workload.NewYCSB(workload.YCSBConfig{Workload: workload.YCSBA, RecordCount: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 100)
	for i := 0; i < 1000; i++ {
		if _, err := l.Put(workload.Key(i), val, "load", ""); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := gen.Next()
		if op.Type == workload.OpRead {
			if _, err := l.Get(op.Key); err != nil && err != store.ErrNotFound {
				b.Fatal(err)
			}
		} else if _, err := l.Put(op.Key, op.Value, "bench", ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_YCSBA_Encrypted(b *testing.B) {
	helper, err := mpc.NewHelper(512)
	if err != nil {
		b.Fatal(err)
	}
	pk := helper.PublicKey()
	kv := store.NewKV()
	gen, _ := workload.NewYCSB(workload.YCSBConfig{Workload: workload.YCSBA, RecordCount: 1000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := gen.Next()
		if op.Type == workload.OpRead {
			_, _ = kv.Get(op.Key)
			continue
		}
		ct, err := pk.EncryptInt(int64(i), nil)
		if err != nil {
			b.Fatal(err)
		}
		kv.Put(op.Key, ct.C.Bytes())
	}
}

// --- E2: update verification by privacy mode -----------------------------

// Note: unlike the harness's fixed-size E2 cell, this benchmark's table
// grows with b.N, so ns/op includes the windowed aggregate scanning an
// ever-larger table — it measures sustained submission on a growing
// database, not a single verification.
func BenchmarkE2_Verify_Plaintext(b *testing.B) {
	mgr := prever.NewPlainManager("e2")
	tasks, _ := prever.NewTable("tasks",
		prever.Column{Name: "worker", Kind: prever.KindString},
		prever.Column{Name: "hours", Kind: prever.KindInt},
		prever.Column{Name: "ts", Kind: prever.KindTime},
	)
	mgr.AddTable(tasks)
	c, err := prever.NewConstraint("flsa",
		"SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) + u.hours <= 40",
		prever.Regulation, prever.Public, "dol")
	if err != nil {
		b.Fatal(err)
	}
	mgr.AddConstraint(c)
	base := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := prever.Update{
			ID: fmt.Sprintf("t%d", i), Table: "tasks", Key: fmt.Sprintf("t%d", i),
			Row: prever.Row{
				"worker": prever.Str(fmt.Sprintf("w%d", i%1024)),
				"hours":  prever.Int(1),
				"ts":     prever.Time(base),
			},
			TS: base,
		}
		if _, err := mgr.Submit(u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_Verify_EncryptedHE(b *testing.B) {
	setup, err := prever.NewEncryptedManager("flsa",
		"SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) + u.hours <= 40000000", 512)
	if err != nil {
		b.Fatal(err)
	}
	base := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct, err := prever.EncryptInt(setup.Key, 1)
		if err != nil {
			b.Fatal(err)
		}
		u := prever.EncryptedUpdate{
			ID: fmt.Sprintf("t%d", i), Group: fmt.Sprintf("w%d", i%64),
			TS:  base,
			Enc: map[string]*prever.HECiphertext{"hours": ct},
		}
		if _, err := setup.Manager.SubmitEncrypted(u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_Verify_ZKProof(b *testing.B) {
	setup, err := prever.NewZKBoundManagerWithGroup("flsa-zk", 1<<40, prever.TestGroup())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := setup.Owner.ProduceUpdate(fmt.Sprintf("t%d", i), "w1", "w1", 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := setup.Manager.SubmitZK(u); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2b: batched submission: sequential loop vs SubmitBatch --------------

// pipelinePlainManager builds a PlainManager with the windowed FLSA
// constraint and prefills `prefill` rows per worker, so each verification
// runs the windowed aggregate over a populated table — the scan-heavy,
// read-only work SubmitBatch parallelizes across producers.
func pipelinePlainManager(tb testing.TB, workers, prefill int) *prever.PlainManager {
	tb.Helper()
	mgr := prever.NewPlainManager("pipe")
	tasks, err := prever.NewTable("tasks",
		prever.Column{Name: "worker", Kind: prever.KindString},
		prever.Column{Name: "hours", Kind: prever.KindInt},
		prever.Column{Name: "ts", Kind: prever.KindTime},
	)
	if err != nil {
		tb.Fatal(err)
	}
	mgr.AddTable(tasks)
	c, err := prever.NewConstraint("flsa",
		"SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) + u.hours <= 40000000",
		prever.Regulation, prever.Public, "dol")
	if err != nil {
		tb.Fatal(err)
	}
	mgr.AddConstraint(c)
	base := time.Date(2022, 3, 29, 0, 0, 0, 0, time.UTC)
	for w := 0; w < workers; w++ {
		for i := 0; i < prefill; i++ {
			u := pipelineUpdate(fmt.Sprintf("seed-w%d-%d", w, i), w, base)
			if r, err := mgr.Submit(u); err != nil || !r.Accepted {
				tb.Fatalf("prefill: %v %+v", err, r)
			}
		}
	}
	return mgr
}

func pipelineUpdate(id string, worker int, ts time.Time) prever.Update {
	return prever.Update{
		ID: id, Table: "tasks", Key: id,
		Row: prever.Row{
			"worker": prever.Str(fmt.Sprintf("w%d", worker)),
			"hours":  prever.Int(1),
			"ts":     prever.Time(ts),
		},
		Producer: fmt.Sprintf("w%d", worker),
		TS:       ts,
	}
}

func pipelineWorkload(workers, per int, tag string) []prever.Update {
	base := time.Date(2022, 3, 29, 12, 0, 0, 0, time.UTC)
	us := make([]prever.Update, 0, workers*per)
	for i := 0; i < per; i++ {
		for w := 0; w < workers; w++ {
			us = append(us, pipelineUpdate(fmt.Sprintf("%s-w%d-%d", tag, w, i), w, base))
		}
	}
	return us
}

func reportP95(b *testing.B, mgr *prever.PlainManager) {
	if l := mgr.Stats().Latency; l.Count > 0 {
		b.ReportMetric(float64(l.P95.Nanoseconds()), "p95-ns")
	}
}

func BenchmarkPipeline_PlainSequential(b *testing.B) {
	mgr := pipelinePlainManager(b, 8, 128)
	us := pipelineWorkload(8, (b.N+7)/8, "seq")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.Submit(us[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportP95(b, mgr)
}

// BenchmarkPipeline_PlainSubmitBatch is the same workload through the
// batch entry point, 64 updates (8 per producer) per call.
func BenchmarkPipeline_PlainSubmitBatch(b *testing.B) {
	const batch = 64
	mgr := pipelinePlainManager(b, 8, 128)
	us := pipelineWorkload(8, (b.N+7)/8, "batch")[:b.N]
	b.ResetTimer()
	for len(us) > 0 {
		n := min(batch, len(us))
		if _, err := mgr.SubmitBatch(us[:n]); err != nil {
			b.Fatal(err)
		}
		us = us[n:]
	}
	b.StopTimer()
	reportP95(b, mgr)
}

// TestSubmitBatchSpeedupOnPlain is the concurrency acceptance gate: on a
// machine with >= 4 cores, SubmitBatch's per-producer fan-out must beat
// the sequential Submit loop by >= 2x on the scan-heavy plain workload.
// Skipped on smaller runners, where there is no parallelism to claim.
func TestSubmitBatchSpeedupOnPlain(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for the 2x speedup gate, have %d", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("speedup measurement is heavyweight")
	}
	const workers, prefill, per = 8, 256, 48
	measure := func(run func([]prever.Update) error, tag string) time.Duration {
		us := pipelineWorkload(workers, per, tag)
		start := time.Now()
		if err := run(us); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	seqMgr := pipelinePlainManager(t, workers, prefill)
	seq := measure(func(us []prever.Update) error {
		for _, u := range us {
			if _, err := seqMgr.Submit(u); err != nil {
				return err
			}
		}
		return nil
	}, "seq")
	batchMgr := pipelinePlainManager(t, workers, prefill)
	batch := measure(func(us []prever.Update) error {
		_, err := batchMgr.SubmitBatch(us)
		return err
	}, "batch")
	speedup := float64(seq) / float64(batch)
	t.Logf("sequential %v, SubmitBatch %v, speedup %.2fx", seq, batch, speedup)
	if speedup < 2.0 {
		t.Fatalf("SubmitBatch speedup %.2fx < 2x (sequential %v, SubmitBatch %v)", speedup, seq, batch)
	}
}

// --- E3: federated enforcement: tokens vs MPC ----------------------------

func BenchmarkE3_Federated_Tokens(b *testing.B) {
	auth, err := token.NewAuthority(1024, nil)
	if err != nil {
		b.Fatal(err)
	}
	fed, err := core.NewTokenFederation("e3", auth.PublicKey(), "p",
		token.NewMemorySpentStore(), []string{"uber", "lyft"})
	if err != nil {
		b.Fatal(err)
	}
	base := time.Now()
	var wallet *token.Wallet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%40 == 0 {
			b.StopTimer()
			w, _ := token.NewWallet(auth.PublicKey(), "p", 40, nil)
			sigs, err := auth.IssueBudget(fmt.Sprintf("w%d", i/40), "p", w.BlindedRequests(), 40)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Finalize(sigs); err != nil {
				b.Fatal(err)
			}
			wallet = w
			b.StartTimer()
		}
		sub := core.TaskSubmission{
			ID: fmt.Sprintf("t%d", i), Worker: fmt.Sprintf("w%d", i/40),
			Platform: "uber", Hours: 1, TS: base,
		}
		if _, err := fed.SubmitTask(sub, wallet); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_Federated_MPC(b *testing.B) {
	setup, err := prever.NewMPCFederationSetup("e3", 1<<40, 0, []string{"uber", "lyft", "doordash"}, 512)
	if err != nil {
		b.Fatal(err)
	}
	fed := setup.Federation
	base := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub := core.TaskSubmission{
			ID: fmt.Sprintf("t%d", i), Worker: fmt.Sprintf("w%d", i%64),
			Platform: "uber", Hours: 1, TS: base,
		}
		if _, err := fed.SubmitTask(sub); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: consensus: Paxos vs PBFT vs sharded chain -----------------------

func BenchmarkE4_Consensus_Paxos3(b *testing.B) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	ids := []string{"r0", "r1", "r2"}
	var leader *paxos.Replica
	for _, id := range ids {
		r, err := paxos.NewReplica(net, id, ids, nil)
		if err != nil {
			b.Fatal(err)
		}
		if leader == nil {
			leader = r
		}
	}
	if err := leader.BecomeLeader(10 * time.Second); err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := leader.Propose(val, 10*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_Consensus_PBFT4(b *testing.B) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	ids := []string{"p0", "p1", "p2", "p3"}
	var primary *pbft.Replica
	for _, id := range ids {
		r, err := pbft.NewReplica(net, id, ids, 1, nil, pbft.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if primary == nil {
			primary = r
		}
	}
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := primary.Submit("bench", uint64(i), val, 10*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_Consensus_Chain1Shard(b *testing.B) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	s, err := chain.NewShard(net, chain.ShardConfig{Name: "bench", F: 1, Timeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := (<-s.SubmitAsync(chain.Tx{Kind: chain.TxPut, Key: fmt.Sprintf("k%d", i), Value: val})).Err; err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: integrity proofs -------------------------------------------------

func e5Ledger(b *testing.B) *ledger.Ledger {
	b.Helper()
	l := ledger.New()
	for i := 0; i < 16384; i++ {
		if _, err := l.Put(fmt.Sprintf("k%06d", i), []byte("v"), "bench", ""); err != nil {
			b.Fatal(err)
		}
	}
	return l
}

func BenchmarkE5_Integrity_Digest16k(b *testing.B) {
	l := e5Ledger(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Digest()
	}
}

func BenchmarkE5_Integrity_ProveInclusion16k(b *testing.B) {
	l := e5Ledger(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.ProveInclusion(uint64(i%16384), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5_Integrity_VerifyInclusion16k(b *testing.B) {
	l := e5Ledger(b)
	d := l.Digest()
	p, err := l.ProveInclusion(1234, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ledger.VerifyInclusion(p, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5_Integrity_FullAudit16k(b *testing.B) {
	l := e5Ledger(b)
	entries := l.Export()
	d := l.Digest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := ledger.Audit(entries, d); !rep.Clean() {
			b.Fatal("audit failed")
		}
	}
}

// --- E6: PIR ---------------------------------------------------------------

func e6DB(b *testing.B, n int) *pir.Database {
	b.Helper()
	db, err := prever.NewPIRDatabase(64)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.Update(i, []byte(fmt.Sprintf("row-%06d", i))); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkE6_PIR_PrivateRead16k(b *testing.B) {
	db := e6DB(b, 16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.PrivateRead(i%16384, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6_PIR_Update16k(b *testing.B) {
	db := e6DB(b, 16384)
	data := []byte("updated")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Update(i%16384, data); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: DP refresh policies ------------------------------------------------

func BenchmarkE7_DP_NaiveInsert(b *testing.B) {
	acct, _ := prever.NewDPAccountant(float64(b.N) + 10)
	idx, err := prever.NewDPIndex(dp.IndexConfig{
		Domain: 1000, Buckets: 100, EpsPerPub: 1,
		Policy: dp.PerUpdate, Accountant: acct,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.Insert(int64(i % 1000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7_DP_BatchedInsert(b *testing.B) {
	acct, _ := prever.NewDPAccountant(float64(b.N)/100 + 10)
	idx, err := prever.NewDPIndex(dp.IndexConfig{
		Domain: 1000, Buckets: 100, EpsPerPub: 1,
		Policy: dp.Batched, BatchSize: 100, Accountant: acct,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.Insert(int64(i % 1000)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: adversary detection -------------------------------------------------

func BenchmarkE8_Adversary_DetectLedgerTamper(b *testing.B) {
	l := ledger.New()
	for i := 0; i < 1024; i++ {
		l.Put(fmt.Sprintf("k%d", i), []byte("v"), "", "")
	}
	d := l.Digest()
	entries := l.Export()
	entries[512].Value = []byte("tampered")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := ledger.Audit(entries, d); rep.Clean() {
			b.Fatal("tamper undetected")
		}
	}
}

func BenchmarkE8_Adversary_DetectDoubleSpend(b *testing.B) {
	auth, err := token.NewAuthority(1024, nil)
	if err != nil {
		b.Fatal(err)
	}
	w, _ := token.NewWallet(auth.PublicKey(), "p", 1, nil)
	sigs, _ := auth.IssueBudget("w", "p", w.BlindedRequests(), 1)
	w.Finalize(sigs)
	tok, _ := w.Next()
	spentStore := token.NewMemorySpentStore()
	token.Spend(auth.PublicKey(), spentStore, tok, "p")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := token.Spend(auth.PublicKey(), spentStore, tok, "p"); err != token.ErrDoubleSpend {
			b.Fatal("double spend undetected")
		}
	}
}

// --- harness smoke: the full table generator compiles and runs quick ------

func BenchmarkHarness_AllTablesQuick(b *testing.B) {
	if testing.Short() {
		b.Skip("harness run is heavyweight")
	}
	for i := 0; i < b.N; i++ {
		if _, err := bench.E5Integrity(bench.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: crash recovery, WAL replay vs snapshots --------------------------

// BenchmarkE10_RecoverReplay measures the restart path behind
// EXPERIMENTS.md E10: each iteration reopens a data directory holding a
// committed workload and recovers every peer of a durable shard from its
// WAL + snapshot. The population cost is paid once outside the timer;
// the metric to watch across PRs is recovery time staying proportional
// to the journal tail, not total history.
func BenchmarkE10_RecoverReplay(b *testing.B) {
	if testing.Short() {
		b.Skip("durable shard recovery is heavyweight")
	}
	dir := b.TempDir()
	cfg := chain.ShardConfig{
		Name:          "bench-e10",
		F:             1,
		Timeout:       20 * time.Second,
		DataDir:       dir,
		SnapshotEvery: 32,
	}
	net := netsim.New(netsim.Config{})
	s, err := chain.NewShard(net, cfg)
	if err != nil {
		net.Close()
		b.Fatal(err)
	}
	const ops = 128
	txs := make([]chain.Tx, ops)
	for i := range txs {
		txs[i] = chain.Tx{Kind: chain.TxPut, Key: fmt.Sprintf("k%d", i%32), Value: []byte("v")}
	}
	for _, res := range s.SubmitBatch(txs) {
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
	height := s.Peers()[0].Height()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	net.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net2 := netsim.New(netsim.Config{})
		s2, err := chain.NewShard(net2, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if got := s2.Peers()[0].Height(); got != height {
			b.Fatalf("recovered height %d, want %d", got, height)
		}
		b.StopTimer()
		if err := s2.Close(); err != nil {
			b.Fatal(err)
		}
		net2.Close()
		b.StartTimer()
	}
}
