package bench

import (
	"fmt"
	"sync"
	"time"

	"prever/internal/constraint"
	"prever/internal/core"
	"prever/internal/he"
	"prever/internal/ledger"
	"prever/internal/mempool"
	"prever/internal/mpc"
	"prever/internal/netsim"
	"prever/internal/paxos"
	"prever/internal/pbft"
	"prever/internal/store"
	"prever/internal/token"
	"prever/internal/workload"

	chainpkg "prever/internal/chain"
)

// E1YCSB compares non-private, ledger-verified and HE-encrypted update
// processing on the YCSB core workloads (paper §6: "comparisons should be
// performed with respect to non-private solutions using standardized
// database benchmarks like TPC and YCSB").
func E1YCSB(scale Scale) (*Table, error) {
	records, ops, encOps := 1000, 2000, 50
	heBits := 512
	if scale == Full {
		records, ops, encOps = 10000, 20000, 500
		heBits = 1024
	}
	t := &Table{
		ID:     "E1",
		Title:  "YCSB A-F: plain vs ledger-verified vs HE-encrypted",
		Notes:  fmt.Sprintf("%d records; %d ops (plain/ledger), %d ops (encrypted, %d-bit Paillier)", records, ops, encOps, heBits),
		Header: []string{"workload", "backend", "ops", "elapsed", "ops/s"},
	}
	key, err := he.GenerateKey(heBits, nil)
	if err != nil {
		return nil, err
	}
	for _, wl := range workload.AllYCSB {
		wlOps := ops
		if wl == workload.YCSBE {
			// Scans are O(records) in this store; keep E's runtime sane.
			wlOps = ops / 10
		}
		// Plain KV.
		if err := e1Backend(t, wl, "plain", records, wlOps, func(kv *store.KV, l *ledger.Ledger, op workload.Op) error {
			return e1ApplyPlain(kv, op)
		}); err != nil {
			return nil, err
		}
		// Ledger-verified.
		if err := e1Backend(t, wl, "ledger", records, wlOps, func(kv *store.KV, l *ledger.Ledger, op workload.Op) error {
			return e1ApplyLedger(l, op)
		}); err != nil {
			return nil, err
		}
		// HE-encrypted (writes encrypt, reads decrypt).
		if err := e1Backend(t, wl, "encrypted", records, encOps, func(kv *store.KV, l *ledger.Ledger, op workload.Op) error {
			return e1ApplyEncrypted(kv, key, op)
		}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func e1Backend(t *Table, wl workload.YCSBWorkload, name string, records, ops int,
	apply func(*store.KV, *ledger.Ledger, workload.Op) error) error {
	gen, err := workload.NewYCSB(workload.YCSBConfig{Workload: wl, RecordCount: records, Seed: 42})
	if err != nil {
		return err
	}
	kv := store.NewKV()
	l := ledger.New()
	val := make([]byte, 100)
	for i := 0; i < records; i++ {
		switch name {
		case "ledger":
			if _, err := l.Put(workload.Key(i), val, "load", ""); err != nil {
				return err
			}
		default:
			kv.Put(workload.Key(i), val)
		}
	}
	opList := gen.Generate(ops)
	start := time.Now()
	for _, op := range opList {
		if err := apply(kv, l, op); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	t.AddRow(string(wl), name, fmt.Sprint(ops), elapsed.Round(time.Millisecond).String(), opsRate(ops, elapsed))
	return nil
}

func e1ApplyPlain(kv *store.KV, op workload.Op) error {
	switch op.Type {
	case workload.OpRead:
		_, err := kv.Get(op.Key)
		if err == store.ErrNotFound {
			return nil
		}
		return err
	case workload.OpUpdate, workload.OpInsert:
		kv.Put(op.Key, op.Value)
		return nil
	case workload.OpScan:
		n := 0
		kv.Range(func(k string, _ []byte) bool {
			if k < op.Key {
				return true
			}
			n++
			return n < op.ScanLen
		})
		return nil
	case workload.OpReadModifyWrite:
		v, err := kv.Get(op.Key)
		if err != nil && err != store.ErrNotFound {
			return err
		}
		if len(v) > 0 {
			v[0]++
		} else {
			v = op.Value
		}
		kv.Put(op.Key, v)
		return nil
	}
	return nil
}

func e1ApplyLedger(l *ledger.Ledger, op workload.Op) error {
	switch op.Type {
	case workload.OpRead:
		_, err := l.Get(op.Key)
		if err == store.ErrNotFound {
			return nil
		}
		return err
	case workload.OpUpdate, workload.OpInsert:
		_, err := l.Put(op.Key, op.Value, "bench", "")
		return err
	case workload.OpScan:
		n := 0
		l.Range(func(k string, _ []byte) bool {
			if k < op.Key {
				return true
			}
			n++
			return n < op.ScanLen
		})
		return nil
	case workload.OpReadModifyWrite:
		v, err := l.Get(op.Key)
		if err != nil && err != store.ErrNotFound {
			return err
		}
		if len(v) > 0 {
			v[0]++
		} else {
			v = op.Value
		}
		_, err = l.Put(op.Key, v, "bench", "")
		return err
	}
	return nil
}

func e1ApplyEncrypted(kv *store.KV, key *he.PrivateKey, op workload.Op) error {
	switch op.Type {
	case workload.OpRead, workload.OpScan:
		raw, err := kv.Get(op.Key)
		if err == store.ErrNotFound {
			return nil
		}
		if err != nil {
			return err
		}
		// Decrypt to model a client-side read of an encrypted row.
		var c he.Ciphertext
		c.C = bigFromBytes(raw)
		if c.C.Sign() > 0 && c.C.Cmp(key.N2) < 0 {
			if _, err := key.Decrypt(&c); err != nil {
				return err
			}
		}
		return nil
	case workload.OpUpdate, workload.OpInsert, workload.OpReadModifyWrite:
		ct, err := key.EncryptInt(int64(len(op.Value)), nil)
		if err != nil {
			return err
		}
		kv.Put(op.Key, ct.C.Bytes())
		return nil
	}
	return nil
}

// E2Verify measures update verification by constraint type and privacy
// mode (RC1): how much the privacy machinery costs per verified update.
func E2Verify(scale Scale) (*Table, error) {
	n := 30
	heBits := 512
	if scale == Full {
		n = 200
		heBits = 1024
	}
	t := &Table{
		ID:     "E2",
		Title:  "Update verification latency by constraint type and privacy mode",
		Notes:  fmt.Sprintf("%d updates per cell; Paillier %d-bit; ZK over the small test group; percentiles from each engine's latency histogram", n, heBits),
		Header: []string{"constraint", "mode", "per-update", "p50", "p95", "p99"},
	}
	type c struct {
		name, source string
	}
	constraints := []c{
		{"equality", "u.kind = 'vaccinated'"},
		{"bound", "u.hours <= 40"},
		{"aggregate-bound", "SUM(tasks.hours WHERE tasks.worker = u.worker) + u.hours <= 40000000"},
		{"window-bound", "SUM(tasks.hours WHERE tasks.worker = u.worker WITHIN 168 HOURS OF u.ts) + u.hours <= 40000000"},
	}
	base := time.Date(2022, 3, 29, 0, 0, 0, 0, time.UTC)
	schema := store.MustSchema(
		store.Column{Name: "worker", Kind: store.KindString},
		store.Column{Name: "hours", Kind: store.KindInt},
		store.Column{Name: "kind", Kind: store.KindString},
		store.Column{Name: "ts", Kind: store.KindTime},
	)
	for _, cc := range constraints {
		// Plaintext mode.
		mgr := core.NewPlainManager("e2", nil)
		mgr.AddTable(store.NewTable("tasks", schema))
		cons, err := core.NewConstraint(cc.name, cc.source, core.Regulation, core.Public, "bench")
		if err != nil {
			return nil, err
		}
		mgr.AddConstraint(cons)
		start := time.Now()
		for i := 0; i < n; i++ {
			u := core.Update{
				ID: fmt.Sprintf("u%d", i), Table: "tasks", Key: fmt.Sprintf("u%d", i),
				Row: store.Row{
					"worker": store.String_("w1"),
					"hours":  store.Int(1),
					"kind":   store.String_("vaccinated"),
					"ts":     store.Time(base.Add(time.Duration(i) * time.Minute)),
				},
				TS: base.Add(time.Duration(i) * time.Minute),
			}
			if _, err := mgr.Submit(u); err != nil {
				return nil, err
			}
		}
		t.AddRow(append([]string{cc.name, "plaintext", perOp(n, time.Since(start))}, latencyCells(mgr.Stats())...)...)

		// Encrypted (HE) mode: only linear bounds qualify.
		form, ok := constraint.CompileBound(constraint.MustParse(cc.source))
		if !ok {
			t.AddRow(append([]string{cc.name, "encrypted(HE)", "n/a (not a linear bound)"}, naLatencyCells()...)...)
			t.AddRow(append([]string{cc.name, "zk-proof", "n/a (not a linear bound)"}, naLatencyCells()...)...)
			continue
		}
		spec, err := core.DeriveBoundSpec(cc.name, form)
		if err != nil {
			t.AddRow(append([]string{cc.name, "encrypted(HE)", "n/a (" + err.Error() + ")"}, naLatencyCells()...)...)
		} else {
			helper, err := mpc.NewHelper(heBits)
			if err != nil {
				return nil, err
			}
			em, err := core.NewEncryptedManager(cc.name, helper.PublicKey(), helper, spec)
			if err != nil {
				return nil, err
			}
			start = time.Now()
			for i := 0; i < n; i++ {
				ct, err := helper.PublicKey().EncryptInt(1, nil)
				if err != nil {
					return nil, err
				}
				u := core.EncryptedUpdate{
					ID: fmt.Sprintf("u%d", i), Group: "w1",
					TS:  base.Add(time.Duration(i) * time.Minute),
					Enc: map[string]*he.Ciphertext{"hours": ct},
				}
				if _, err := em.SubmitEncrypted(u); err != nil {
					return nil, err
				}
			}
			t.AddRow(append([]string{cc.name, "encrypted(HE)", perOp(n, time.Since(start))}, latencyCells(em.Stats())...)...)
		}

		// ZK mode: cumulative bounds only (windows need plaintext expiry).
		zkN := n / 3
		if zkN < 5 {
			zkN = 5
		}
		setupOK := spec != nil && spec.Agg == nil || cc.name == "aggregate-bound"
		if !setupOK {
			t.AddRow(append([]string{cc.name, "zk-proof", "n/a (windowed)"}, naLatencyCells()...)...)
			continue
		}
		zkBench(t, cc.name, zkN)
		zkBenchBatched(t, cc.name, zkN)
	}
	return t, nil
}

func zkBench(t *Table, name string, n int) {
	fail := func(err error) {
		t.AddRow(append([]string{name, "zk-proof", "error: " + err.Error()}, naLatencyCells()...)...)
	}
	params := zkParams()
	m, err := core.NewZKBoundManager(name, params, int64(n)*2)
	if err != nil {
		fail(err)
		return
	}
	owner := core.NewZKOwner(params, name, int64(n)*2)
	start := time.Now()
	for i := 0; i < n; i++ {
		u, err := owner.ProduceUpdate(fmt.Sprintf("u%d", i), "w1", "w1", 1)
		if err != nil {
			fail(err)
			return
		}
		if _, err := m.SubmitZK(u); err != nil {
			fail(err)
			return
		}
	}
	t.AddRow(append([]string{name, "zk-proof", perOp(n, time.Since(start))}, latencyCells(m.Stats())...)...)
}

// zkBenchBatched is zkBench over the amortized path: the owner's proofs
// are produced up front (proving cost excluded), then the whole chain is
// submitted as one batch so the manager verifies it with a single folded
// check per group (SubmitZKBatch → zk.VerifyBoundBatch).
func zkBenchBatched(t *Table, name string, n int) {
	fail := func(err error) {
		t.AddRow(append([]string{name, "zk-proof (batched)", "error: " + err.Error()}, naLatencyCells()...)...)
	}
	params := zkParams()
	m, err := core.NewZKBoundManager(name, params, int64(n)*2)
	if err != nil {
		fail(err)
		return
	}
	owner := core.NewZKOwner(params, name, int64(n)*2)
	us := make([]core.ZKUpdate, n)
	for i := range us {
		u, err := owner.ProduceUpdate(fmt.Sprintf("u%d", i), "w1", "w1", 1)
		if err != nil {
			fail(err)
			return
		}
		us[i] = u
	}
	start := time.Now()
	rs, err := m.SubmitZKBatch(us)
	if err != nil {
		fail(err)
		return
	}
	for _, r := range rs {
		if !r.Accepted {
			fail(fmt.Errorf("update %s rejected: %s", r.UpdateID, r.Reason))
			return
		}
	}
	t.AddRow(append([]string{name, "zk-proof (batched)", perOp(n, time.Since(start))}, latencyCells(m.Stats())...)...)
}

// E3Federated contrasts the two RC2 enforcement mechanisms — Separ-style
// tokens vs MPC — as the federation grows, quantifying the paper's claim
// that tokens are cheap but limited while MPC generalizes at a cost.
func E3Federated(scale Scale) (*Table, error) {
	tasks := 40
	rsaBits, heBits := 1024, 512
	sizes := []int{2, 4}
	if scale == Full {
		tasks = 200
		sizes = []int{2, 4, 8}
	}
	t := &Table{
		ID:     "E3",
		Title:  "Federated FLSA enforcement: tokens vs MPC vs non-private",
		Notes:  fmt.Sprintf("%d one-hour tasks; token authority RSA-%d; MPC helper Paillier-%d", tasks, rsaBits, heBits),
		Header: []string{"platforms", "mechanism", "per-task", "tasks/s"},
	}
	base := time.Date(2022, 3, 28, 0, 0, 0, 0, time.UTC)
	for _, nPlat := range sizes {
		platforms := make([]string, nPlat)
		for i := range platforms {
			platforms[i] = workload.PlatformID(i)
		}
		// Non-private baseline: a single shared counter check.
		{
			totals := map[string]int64{}
			start := time.Now()
			for i := 0; i < tasks; i++ {
				w := workload.WorkerID(i % 8)
				if totals[w]+1 <= 1<<40 {
					totals[w]++
				}
			}
			elapsed := time.Since(start)
			t.AddRow(fmt.Sprint(nPlat), "non-private", perOp(tasks, elapsed), opsRate(tasks, elapsed))
		}
		// Token-based.
		{
			auth, err := token.NewAuthority(rsaBits, nil)
			if err != nil {
				return nil, err
			}
			fed, err := core.NewTokenFederation("e3", auth.PublicKey(), "p", token.NewMemorySpentStore(), platforms)
			if err != nil {
				return nil, err
			}
			wallets := map[string]*token.Wallet{}
			for i := 0; i < 8; i++ {
				w := workload.WorkerID(i)
				wal, err := token.NewWallet(auth.PublicKey(), "p", tasks/4+4, nil)
				if err != nil {
					return nil, err
				}
				sigs, err := auth.IssueBudget(w, "p", wal.BlindedRequests(), 1<<30)
				if err != nil {
					return nil, err
				}
				if err := wal.Finalize(sigs); err != nil {
					return nil, err
				}
				wallets[w] = wal
			}
			start := time.Now()
			for i := 0; i < tasks; i++ {
				w := workload.WorkerID(i % 8)
				sub := core.TaskSubmission{
					ID: fmt.Sprintf("tk%d", i), Worker: w,
					Platform: platforms[i%nPlat], Hours: 1, TS: base,
				}
				if _, err := fed.SubmitTask(sub, wallets[w]); err != nil {
					return nil, err
				}
			}
			elapsed := time.Since(start)
			t.AddRow(fmt.Sprint(nPlat), "tokens", perOp(tasks, elapsed), opsRate(tasks, elapsed))
		}
		// MPC-based: exact (re-encrypting) and incremental (cached totals).
		for _, mode := range []string{"mpc", "mpc-incremental"} {
			helper, err := mpc.NewHelper(heBits)
			if err != nil {
				return nil, err
			}
			fed, err := core.NewMPCFederation("e3", helper.PublicKey(), helper, 1<<40, 168*time.Hour, platforms)
			if err != nil {
				return nil, err
			}
			if mode == "mpc-incremental" {
				fed.EnableIncremental()
				// Offline phase: enough randomness for every check and
				// accept (not part of the timed online path).
				if err := fed.PrecomputeRandomness(tasks * (nPlat + 2)); err != nil {
					return nil, err
				}
			}
			start := time.Now()
			for i := 0; i < tasks; i++ {
				sub := core.TaskSubmission{
					ID: fmt.Sprintf("mp%d", i), Worker: workload.WorkerID(i % 8),
					Platform: platforms[i%nPlat], Hours: 1, TS: base,
				}
				if _, err := fed.SubmitTask(sub); err != nil {
					return nil, err
				}
			}
			elapsed := time.Since(start)
			t.AddRow(fmt.Sprint(nPlat), mode, perOp(tasks, elapsed), opsRate(tasks, elapsed))
		}
	}
	return t, nil
}

// E4Consensus compares the integrity layer's ordering protocols: Paxos
// (crash-fault baseline), PBFT (Byzantine, batched and unbatched), and the
// SharPer-style sharded chain (paper §6: "the distributed solutions should
// be compared in terms of throughput and latency with standard distributed
// fault-tolerant protocols, e.g., Paxos and PBFT").
func E4Consensus(scale Scale) (*Table, error) {
	ops := 200
	if scale == Full {
		ops = 1000
	}
	t := &Table{
		ID:     "E4",
		Title:  "Replicated update log: Paxos vs PBFT vs sharded chain",
		Notes:  fmt.Sprintf("%d 64-byte commits per configuration over a 100µs one-way link; batched rows amortize that RTT across up to 64 ops per instance", ops),
		Header: []string{"protocol", "config", "n", "per-op", "ops/s"},
	}
	val := make([]byte, 64)
	// Every non-faulty configuration runs over the same LAN-like link: a
	// zero-latency network hides the per-instance round trips that
	// batching exists to amortize.
	lanCfg := netsim.Config{Latency: 100 * time.Microsecond}

	// Paxos n=3 and n=5.
	for _, n := range []int{3, 5} {
		net := netsim.New(lanCfg)
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("r%d", i)
		}
		var leader *paxos.Replica
		for _, id := range ids {
			r, err := paxos.NewReplica(net, id, ids, nil)
			if err != nil {
				net.Close()
				return nil, err
			}
			if leader == nil {
				leader = r
			}
		}
		if err := leader.BecomeLeader(10 * time.Second); err != nil {
			net.Close()
			return nil, err
		}
		start := time.Now()
		for i := 0; i < ops; i++ {
			if _, err := leader.Propose(val, 10*time.Second); err != nil {
				net.Close()
				return nil, err
			}
		}
		elapsed := time.Since(start)
		net.Close()
		t.AddRow("paxos", "single leader", fmt.Sprint(n), perOp(ops, elapsed), opsRate(ops, elapsed))
	}

	// Paxos batched: the mempool batcher drains up to 64 ops per consensus
	// instance and keeps 4 instances pipelined through the failover client
	// (eager slot assignment fixes log order at dispatch).
	{
		net := netsim.New(lanCfg)
		const n = 5
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("r%d", i)
		}
		var replicas []*paxos.Replica
		for _, id := range ids {
			r, err := paxos.NewReplica(net, id, ids, nil)
			if err != nil {
				net.Close()
				return nil, err
			}
			replicas = append(replicas, r)
		}
		if err := replicas[0].BecomeLeader(10 * time.Second); err != nil {
			net.Close()
			return nil, err
		}
		client, err := paxos.NewClient(net, replicas, paxos.ClientOptions{})
		if err != nil {
			net.Close()
			return nil, err
		}
		bops := 4 * ops
		elapsed, err := mempoolDrive(bops, client.StartBatch, func(p *paxos.Pending) error {
			_, err := p.Wait(10 * time.Second)
			return err
		})
		net.Close()
		if err != nil {
			return nil, err
		}
		t.AddRow("paxos", "batch=64 pipelined", fmt.Sprint(n), perOp(bops, elapsed), opsRate(bops, elapsed))
	}

	// PBFT one request per instance, f=1 (n=4) and f=2 (n=7).
	for _, f := range []int{1, 2} {
		net := netsim.New(lanCfg)
		n := 3*f + 1
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("p%d", i)
		}
		var primary *pbft.Replica
		for _, id := range ids {
			r, err := pbft.NewReplica(net, id, ids, f, nil, pbft.Options{})
			if err != nil {
				net.Close()
				return nil, err
			}
			if primary == nil {
				primary = r
			}
		}
		start := time.Now()
		for i := 0; i < ops; i++ {
			if err := primary.Submit("bench", uint64(i), val, 10*time.Second); err != nil {
				net.Close()
				return nil, err
			}
		}
		elapsed := time.Since(start)
		net.Close()
		t.AddRow("pbft", "batch=1", fmt.Sprint(n), perOp(ops, elapsed), opsRate(ops, elapsed))
	}

	// PBFT batched through the mempool (batch 64, 4 pipelined requests
	// with eagerly assigned sequence numbers).
	{
		net := netsim.New(lanCfg)
		const f, n = 1, 4
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("p%d", i)
		}
		var replicas []*pbft.Replica
		for _, id := range ids {
			r, err := pbft.NewReplica(net, id, ids, f, nil, pbft.Options{})
			if err != nil {
				net.Close()
				return nil, err
			}
			replicas = append(replicas, r)
		}
		client, err := pbft.NewClient(net, replicas, "bench-mempool", pbft.ClientOptions{})
		if err != nil {
			net.Close()
			return nil, err
		}
		bops := 4 * ops
		elapsed, err := mempoolDrive(bops, client.StartBatch, func(p *pbft.Pending) error {
			return p.Wait(10 * time.Second)
		})
		net.Close()
		if err != nil {
			return nil, err
		}
		t.AddRow("pbft", "batch=64 pipelined", fmt.Sprint(n), perOp(bops, elapsed), opsRate(bops, elapsed))
	}

	// Faulty-network variants: duplicated and reordered delivery (fixed
	// seed), driven through the failover clients, with a follower crash
	// at the halfway mark and a restart (plus catch-up sync) at 3/4.
	faultyCfg := netsim.Config{
		DuplicateRate: 0.05,
		ReorderRate:   0.1,
		ReorderDelay:  time.Millisecond,
		Seed:          42,
	}
	{
		net := netsim.New(faultyCfg)
		const n = 5
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("r%d", i)
		}
		var replicas []*paxos.Replica
		for _, id := range ids {
			r, err := paxos.NewReplica(net, id, ids, nil)
			if err != nil {
				net.Close()
				return nil, err
			}
			replicas = append(replicas, r)
		}
		if err := replicas[0].BecomeLeader(10 * time.Second); err != nil {
			net.Close()
			return nil, err
		}
		client, err := paxos.NewClient(net, replicas, paxos.ClientOptions{})
		if err != nil {
			net.Close()
			return nil, err
		}
		follower := replicas[n-1]
		start := time.Now()
		for i := 0; i < ops; i++ {
			switch i {
			case ops / 2:
				if err := follower.Crash(); err != nil {
					net.Close()
					return nil, err
				}
			case ops * 3 / 4:
				if err := follower.Restart(); err != nil {
					net.Close()
					return nil, err
				}
			}
			if _, err := client.Propose(val, 10*time.Second); err != nil {
				net.Close()
				return nil, err
			}
		}
		elapsed := time.Since(start)
		net.Close()
		t.AddRow("paxos", "faulty link", fmt.Sprint(n), perOp(ops, elapsed), opsRate(ops, elapsed))
	}
	{
		net := netsim.New(faultyCfg)
		const f, n = 1, 4
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("p%d", i)
		}
		var replicas []*pbft.Replica
		for _, id := range ids {
			r, err := pbft.NewReplica(net, id, ids, f, nil, pbft.Options{})
			if err != nil {
				net.Close()
				return nil, err
			}
			replicas = append(replicas, r)
		}
		client, err := pbft.NewClient(net, replicas, "bench-faulty", pbft.ClientOptions{})
		if err != nil {
			net.Close()
			return nil, err
		}
		follower := replicas[n-1] // backup: the view-0 primary stays up
		start := time.Now()
		for i := 0; i < ops; i++ {
			switch i {
			case ops / 2:
				if err := follower.Crash(); err != nil {
					net.Close()
					return nil, err
				}
			case ops * 3 / 4:
				if err := follower.Restart(); err != nil {
					net.Close()
					return nil, err
				}
			}
			if err := client.Submit(val, 10*time.Second); err != nil {
				net.Close()
				return nil, err
			}
		}
		elapsed := time.Since(start)
		net.Close()
		t.AddRow("pbft", "faulty link", fmt.Sprint(n), perOp(ops, elapsed), opsRate(ops, elapsed))
	}

	// Sharded chain: 1 and 2 shards, all-local transactions, then 10%
	// cross-shard.
	for _, shards := range []int{1, 2} {
		net := netsim.New(lanCfg)
		var ss []*chainpkg.Shard
		for i := 0; i < shards; i++ {
			s, err := chainpkg.NewShard(net, chainpkg.ShardConfig{
				Name: fmt.Sprintf("sh%d", i), F: 1, Timeout: 10 * time.Second,
			})
			if err != nil {
				net.Close()
				return nil, err
			}
			ss = append(ss, s)
		}
		sharded, err := chainpkg.NewSharded(ss...)
		if err != nil {
			net.Close()
			return nil, err
		}
		start := time.Now()
		// Parallel submissions across shards (that is the point of sharding).
		errCh := make(chan error, ops)
		sem := make(chan struct{}, 2*shards)
		for i := 0; i < ops; i++ {
			sem <- struct{}{}
			go func(i int) {
				defer func() { <-sem }()
				errCh <- (<-sharded.SubmitAsync(chainpkg.Tx{Kind: chainpkg.TxPut, Key: fmt.Sprintf("k%d", i), Value: val})).Err
			}(i)
		}
		for i := 0; i < ops; i++ {
			if err := <-errCh; err != nil {
				net.Close()
				return nil, err
			}
		}
		elapsed := time.Since(start)
		t.AddRow("chain", "local tx", fmt.Sprintf("%d×4", shards), perOp(ops, elapsed), opsRate(ops, elapsed))
		if shards == 2 {
			crossOps := ops / 10
			start = time.Now()
			for i := 0; i < crossOps; i++ {
				writes := []chainpkg.Tx{
					{Kind: chainpkg.TxPut, Key: fmt.Sprintf("xa%d", i), Value: val},
					{Kind: chainpkg.TxPut, Key: fmt.Sprintf("xb%d", i), Value: val},
				}
				if err := sharded.SubmitCross(writes); err != nil {
					net.Close()
					return nil, err
				}
			}
			elapsed = time.Since(start)
			t.AddRow("chain", "cross-shard tx", "2×4", perOp(crossOps, elapsed), opsRate(crossOps, elapsed))
		}
		net.Close()
	}

	// Chain batch-first front end: SubmitBatch through the shard mempool,
	// batch 64, 4 pipelined PBFT requests.
	{
		net := netsim.New(lanCfg)
		s, err := chainpkg.NewShard(net, chainpkg.ShardConfig{
			Name: "bsh", F: 1, Timeout: 10 * time.Second,
			Mempool: mempool.Config{
				Cap:           8 * ops,
				BatchSize:     64,
				FlushInterval: 200 * time.Microsecond,
				MaxInFlight:   4,
			},
		})
		if err != nil {
			net.Close()
			return nil, err
		}
		bops := 4 * ops
		txs := make([]chainpkg.Tx, bops)
		for i := range txs {
			txs[i] = chainpkg.Tx{Kind: chainpkg.TxPut, Key: fmt.Sprintf("bk%d", i), Value: val}
		}
		start := time.Now()
		for i, res := range s.SubmitBatch(txs) {
			if res.Err != nil {
				_ = s.Close()
				net.Close()
				return nil, fmt.Errorf("E4 chain batched tx %d: %w", i, res.Err)
			}
		}
		elapsed := time.Since(start)
		_ = s.Close()
		net.Close()
		t.AddRow("chain", "batch=64 pipelined", "1×4", perOp(bops, elapsed), opsRate(bops, elapsed))
	}
	return t, nil
}

// mempoolDrive pushes n ops through a mempool batcher wired to a consensus
// client's pipelined batch API and returns the wall time until every op is
// acked. Shared by the paxos and pbft batched E4 rows: start launches one
// consensus instance for an encoded batch, wait blocks for its outcome.
func mempoolDrive[P any](n int, start func([][]byte) P, wait func(P) error) (time.Duration, error) {
	pool := mempool.NewPool(mempool.Config{
		Cap:           2 * n,
		BatchSize:     64,
		FlushInterval: 200 * time.Microsecond,
		MaxInFlight:   4,
	})
	batcher := mempool.NewBatcher(pool, func(ops [][]byte) func() error {
		p := start(ops)
		return func() error { return wait(p) }
	})
	defer func() {
		batcher.Stop()
		_ = pool.Close()
	}()
	val := make([]byte, 64)
	errCh := make(chan error, n)
	var wg sync.WaitGroup
	begin := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		err := pool.Add(mempool.Op{
			ID:   fmt.Sprintf("e4-%d", i),
			Lane: fmt.Sprintf("lane-%d", i%8),
			Data: val,
		}, func(err error) {
			defer wg.Done()
			if err != nil {
				errCh <- err
			}
		})
		if err != nil {
			return 0, err
		}
	}
	wg.Wait()
	elapsed := time.Since(begin)
	close(errCh)
	for err := range errCh {
		if err != nil {
			return 0, fmt.Errorf("E4 batched op: %w", err)
		}
	}
	return elapsed, nil
}
