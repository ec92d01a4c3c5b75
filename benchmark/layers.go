package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"prever/internal/api"
	"prever/internal/chain"
	"prever/internal/ledger"
	"prever/internal/mempool"
	"prever/internal/merkle"
	"prever/internal/netsim"
	"prever/internal/paxos"
	"prever/internal/wal"
)

// leafFor is how long each leaf layer is driven on its own.
func (cfg runCfg) leafFor() time.Duration { return min(400*time.Millisecond, cfg.timed/4) }

// serveLeaves measures each layer under the served path on its own, with
// the workload's own requests: the wire codec, the mempool with an instant
// proposer, block verification and inclusion proofs, pbft and paxos at
// fixed batch sizes, and for a durable workload the write-ahead log.
func serveLeaves(name string, cfg runCfg, r *report) error {
	spec := serveSpecs[name]
	l, err := newLoad(spec, cfg.seed, cfg.workers, false)
	if err != nil {
		return err
	}
	if err := wireLeaf(spec, l, cfg.leafFor(), r); err != nil {
		return err
	}
	mempoolLeaf(spec, cfg.workers, cfg.leafFor(), r)
	if err := chainLeaf(spec, l, r); err != nil {
		return err
	}

	payload, err := pbftTarget{}.prepare(nextTxs(l, 64))
	if err != nil {
		return err
	}
	ops := payload.([][]byte)
	b64, _, err := pbftCommit(ops, "", cfg.workers, cfg.leafFor())
	if err != nil {
		return err
	}
	b1, _, err := pbftCommit(ops[:1], "", cfg.workers, cfg.leafFor())
	if err != nil {
		return err
	}
	r.set("pbft.batch64_commit_ms_p50", ms(b64))
	r.set("pbft.batch1_commit_ms_p50", ms(b1))
	px, pxMsgs, err := paxosCommit(ops, cfg.workers, cfg.leafFor())
	if err != nil {
		return err
	}
	r.set("paxos.batch64_commit_ms_p50", ms(px))
	r.set("paxos.msgs_per_op", pxMsgs)

	if spec.durable {
		dir := filepath.Join(cfg.workDir, "pbft-durable")
		d64, _, err := pbftCommit(ops, dir, cfg.workers, cfg.leafFor())
		if err != nil {
			return err
		}
		if b64 > 0 {
			r.set("wal.durable_slowdown_x", float64(d64)/float64(b64))
		}
		if err := walLeaf(cfg, r); err != nil {
			return err
		}
	}
	return nil
}

func nextTxs(l *load, n int) []api.Tx {
	txs, _, _ := l.writers[0].build(n)
	return txs
}

// wireLeaf times the api codec on the workload's own requests: encode,
// strict decode, Validate and ToChain, as the client and the handler do.
func wireLeaf(spec serveSpec, l *load, leafFor time.Duration, r *report) error {
	var reqBytes, respBytes, ops int
	start := time.Now()
	for time.Since(start) < leafFor {
		txs := nextTxs(l, spec.batch)
		var body []byte
		var err error
		if spec.batch == 1 {
			body, err = json.Marshal(api.SubmitRequest{Tx: txs[0]})
		} else {
			body, err = json.Marshal(api.BatchRequest{Txs: txs})
		}
		if err != nil {
			return err
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var got api.BatchRequest
		if spec.batch == 1 {
			var one api.SubmitRequest
			err = dec.Decode(&one)
			got.Txs = []api.Tx{one.Tx}
		} else {
			err = dec.Decode(&got)
		}
		if err != nil {
			return err
		}
		if err := got.Validate(); err != nil {
			return err
		}
		results := make([]api.BatchResult, len(got.Txs))
		for i, tx := range got.Txs {
			if _, err := tx.ToChain(); err != nil {
				return err
			}
			results[i].TxID = fmt.Sprintf("shard0-0123456789abcdef-tx-%d", ops+i)
		}
		var resp []byte
		if spec.batch == 1 {
			resp, err = json.Marshal(api.SubmitResponse{TxID: results[0].TxID})
		} else {
			resp, err = json.Marshal(api.BatchResponse{Results: results})
		}
		if err != nil {
			return err
		}
		var back api.BatchResponse
		if spec.batch > 1 {
			if err := json.Unmarshal(resp, &back); err != nil {
				return err
			}
		}
		reqBytes, respBytes, ops = reqBytes+len(body), respBytes+len(resp), ops+len(txs)
	}
	r.set("api.wire_us_per_op", us(time.Since(start))/float64(ops))
	r.set("api.req_bytes_per_op", float64(reqBytes)/float64(ops))
	r.set("api.resp_bytes_per_op", float64(respBytes)/float64(ops))
	return nil
}

// mempoolLeaf drives Pool.Add -> WaitBatch -> Resolve with a proposer that
// commits instantly: what is left is admission, lanes, batching and the
// flush wait. C producers each add one request's worth of ops and wait.
func mempoolLeaf(spec serveSpec, workers int, leafFor time.Duration, r *report) {
	pool := mempool.NewPool(mempool.Config{})
	batcher := mempool.NewBatcher(pool, func([][]byte) func() error { return func() error { return nil } })
	data := make([]byte, 160) // about one encoded put
	samples := closedLoop(workers, leafFor, func(w, seq int, now func() time.Duration) sample {
		var wg sync.WaitGroup
		s := sample{ops: spec.batch, start: now()}
		for i := 0; i < spec.batch; i++ {
			id := fmt.Sprintf("w%d-%d-%d", w, seq, i)
			wg.Add(1)
			if err := pool.Add(mempool.Op{ID: id, Lane: id, Data: data}, func(error) { wg.Done() }); err != nil {
				wg.Done()
				s.failed++
			}
		}
		wg.Wait()
		s.end = now()
		return s
	})
	batcher.Stop()
	_ = pool.Close() // nothing is queued once every producer has returned
	if lat := latencies(samples, 0, leafFor, false); len(lat) > 0 {
		r.set("mempool.add_resolve_us_per_op", percentile(lat, 0.5)*1000/float64(spec.batch))
	}
}

// chainLeaf commits some of the workload's requests on an in-process chain
// and times what /audit and recovery pay (VerifyBlocks) and an inclusion
// proof with its verification.
func chainLeaf(spec serveSpec, l *load, r *report) error {
	st, err := bootInProcess("")
	if err != nil {
		return err
	}
	defer func() { _ = st.stop() }()
	tgt := chainTarget{st.sharded}
	for i := 0; i < 4096/spec.batch && i < 400; i++ {
		req, err := tgt.prepare(nextTxs(l, spec.batch))
		if err != nil {
			return err
		}
		if failed, _ := tgt.send(0, req); failed != 0 {
			return errors.New("chain leaf: a transaction was not acknowledged")
		}
	}
	peer := st.sharded.Shards()[0].Peers()[0]
	blocks := peer.Blocks()
	txs := 0
	for _, b := range blocks {
		txs += len(b.Txs)
	}
	if txs == 0 {
		return errors.New("chain leaf: no blocks")
	}
	start := time.Now()
	if bad, err := chain.VerifyBlocks(blocks); bad != -1 {
		return fmt.Errorf("chain leaf: block %d does not verify: %v", bad, err)
	}
	r.set("chain.verify_blocks_us_per_tx", us(time.Since(start))/float64(txs))
	start = time.Now()
	proofs := 0
	for _, b := range blocks {
		if proofs == 200 {
			break
		}
		proof, tx, err := peer.ProveTx(b.Height, 0)
		if err != nil {
			return err
		}
		if err := chain.VerifyTxProof(proof, tx, b); err != nil {
			return err
		}
		proofs++
	}
	r.set("chain.prove_tx_us", us(time.Since(start))/float64(proofs))
	return nil
}

// pbftCommit is C closed-loop callers of pbft.Client.SubmitBatch(ops) on
// four replicas with a no-op applier: the p50 commit time and messages per
// committed op.
func pbftCommit(ops [][]byte, dataDir string, workers int, leafFor time.Duration) (time.Duration, float64, error) {
	c, err := newPBFTCluster(dataDir)
	if err != nil {
		return 0, 0, err
	}
	defer c.close()
	tgt := pbftTarget{c.client}
	samples := closedLoop(workers, leafFor, func(w, _ int, now func() time.Duration) sample {
		s := sample{ops: len(ops), start: now()}
		s.failed, _ = tgt.send(w, ops)
		s.end = now()
		return s
	})
	return commitSummary(samples, c.net, "pbft", leafFor)
}

func commitSummary(samples []sample, simn *netsim.Network, what string, leafFor time.Duration) (time.Duration, float64, error) {
	var acked int
	for _, s := range samples {
		if s.failed > 0 {
			return 0, 0, fmt.Errorf("%s leaf: a batch did not commit", what)
		}
		acked += s.ops
	}
	sent, _, _ := simn.Stats()
	lat := latencies(samples, 0, leafFor, false)
	return time.Duration(percentile(lat, 0.5) * float64(time.Millisecond)), float64(sent) / float64(max(acked, 1)), nil
}

// paxosCommit sends the same op stream through paxos.Client.ProposeBatch
// on three replicas: the paper's comparison point. Nothing serves paxos
// today, so it moves no end-to-end metric.
func paxosCommit(ops [][]byte, workers int, leafFor time.Duration) (time.Duration, float64, error) {
	simn := netsim.New(netsim.Config{})
	defer simn.Close()
	ids := []string{"x0", "x1", "x2"}
	var replicas []*paxos.Replica
	for _, id := range ids {
		rep, err := paxos.NewReplica(simn, id, ids, nil)
		if err != nil {
			return 0, 0, err
		}
		replicas = append(replicas, rep)
	}
	if err := replicas[0].BecomeLeader(10 * time.Second); err != nil {
		return 0, 0, err
	}
	client, err := paxos.NewClient(simn, replicas, paxos.ClientOptions{})
	if err != nil {
		return 0, 0, err
	}
	simn.ResetStats()
	samples := closedLoop(workers, leafFor, func(_, _ int, now func() time.Duration) sample {
		s := sample{ops: len(ops), start: now()}
		if _, err := client.ProposeBatch(ops, 10*time.Second); err != nil {
			s.failed = len(ops)
		}
		s.end = now()
		return s
	})
	return commitSummary(samples, simn, "paxos", leafFor)
}

// walLeaf opens the copy of a killed replica's journal (what recovery
// pays before replay) and then replays its record sizes into a fresh log:
// Append for each record of a consensus instance, then one Sync.
func walLeaf(cfg runCfg, r *report) error {
	start := time.Now()
	log, rcv, err := wal.Open(filepath.Join(cfg.workDir, "wal-copy"), wal.Options{})
	if err != nil {
		return err
	}
	r.set("wal.reopen_ms", ms(time.Since(start)))
	if err := log.Close(); err != nil {
		return err
	}
	sizes := []int{256}
	if len(rcv.Records) > 0 {
		sizes = sizes[:0]
		for _, rec := range rcv.Records {
			sizes = append(sizes, len(rec))
		}
	}
	fresh, _, err := wal.Open(filepath.Join(cfg.workDir, "wal-fresh"), wal.Options{})
	if err != nil {
		return err
	}
	const perSync = 4 // a replica journals a few records per instance before it votes
	var appends, syncs []float64
	buf := make([]byte, 1<<20)
	start = time.Now()
	for i := 0; time.Since(start) < cfg.leafFor(); i++ {
		for j := 0; j < perSync; j++ {
			n := min(sizes[(i*perSync+j)%len(sizes)], len(buf))
			t := time.Now()
			if err := fresh.Append(buf[:n]); err != nil {
				return err
			}
			appends = append(appends, us(time.Since(t)))
		}
		t := time.Now()
		if err := fresh.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, ms(time.Since(t)))
	}
	r.Samples["wal.sync"] = len(syncs)
	r.set("wal.append_us_p50", median(appends))
	r.set("wal.sync_ms_p50", median(syncs))
	return fresh.Close()
}

// ledgerLeaf times the integrity layer every accepted engine update is
// anchored in, on payloads of the size the engine writes.
func ledgerLeaf(payloadBytes int, r *report) error {
	const entries = 1024
	l := ledger.New()
	payload := make([]byte, payloadBytes)
	start := time.Now()
	for i := 0; i < entries; i++ {
		if _, err := l.Put(fmt.Sprintf("k/%d", i), payload, "bench", fmt.Sprint(i)); err != nil {
			return err
		}
	}
	r.set("ledger.append_us", us(time.Since(start))/entries)
	d := l.Digest()
	start = time.Now()
	for i := 0; i < 256; i++ {
		p, err := l.ProveInclusion(uint64(i*4), entries)
		if err != nil {
			return err
		}
		if err := ledger.VerifyInclusion(p, d); err != nil {
			return err
		}
	}
	r.set("ledger.prove_incl_us", us(time.Since(start))/256)
	start = time.Now()
	if rep := ledger.Audit(l.Export(), d); !rep.Clean() {
		return fmt.Errorf("ledger leaf: audit not clean: %+v", rep)
	}
	r.set("ledger.audit_us_per_entry", us(time.Since(start))/entries)
	t := merkle.New()
	start = time.Now()
	for i := 0; i < entries; i++ {
		t.Append(payload)
	}
	_ = t.Root()
	r.set("merkle.root_us_per_leaf", us(time.Since(start))/entries)
	return nil
}
