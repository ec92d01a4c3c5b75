package chaos

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"prever/internal/chain"
	"prever/internal/mempool"
	"prever/internal/netsim"
	"prever/internal/paxos"
	"prever/internal/pbft"
	"prever/internal/wire/wiretest"
)

// batchChecker verifies the paxos apply contract when slots carry
// mempool batches: contiguous slots exactly once, batch values fanned
// out, and op IDs deduplicated the way chain peers do it — with an
// unbounded seen-map keyed only on the applied sequence, so every
// replica drops the same duplicates and the op streams stay comparable.
// (A client timeout retry may legally commit one batch into two slots;
// the dedup is what turns that at-least-once into exactly-once.)
type batchChecker struct {
	mu   sync.Mutex
	next uint64
	seen map[string]bool
	ops  []string
	bad  []string
}

func (c *batchChecker) apply(slot uint64, value []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen == nil {
		c.seen = make(map[string]bool)
	}
	if slot != c.next {
		c.bad = append(c.bad, fmt.Sprintf("applied slot %d, expected %d", slot, c.next))
		return
	}
	c.next++
	ops := [][]byte{value} // no-op gap fill or bare value
	if run, ok := mempool.DecodeBatch(value); ok {
		ops = wiretest.Split(run)
	}
	for _, op := range ops {
		id := string(op)
		if id == "" || c.seen[id] {
			continue
		}
		c.seen[id] = true
		c.ops = append(c.ops, id)
	}
}

func (c *batchChecker) snapshot() (ops, bad []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.ops...), append([]string(nil), c.bad...)
}

// TestChaosPaxosBatched drives a mempool + batcher over the paxos
// failover client while the injector crashes and isolates replicas:
// every acked op must survive into a contiguous, exactly-once,
// replica-identical applied stream.
func TestChaosPaxosBatched(t *testing.T) { chaosPaxosBatched(t, chaosSeed(t)) }

func chaosPaxosBatched(t *testing.T, seed int64) {
	logSeed(t, seed)
	net := netsim.New(faultyConfig(seed, 0.01))
	defer net.Close()

	ids := []string{"pax0", "pax1", "pax2", "pax3", "pax4"}
	checkers := make(map[string]*batchChecker)
	var replicas []*paxos.Replica
	var targets []Target
	for _, id := range ids {
		bc := &batchChecker{}
		checkers[id] = bc
		r, err := paxos.NewReplica(net, id, ids, bc.apply)
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
		targets = append(targets, Target{ID: id, Crash: r.Crash, Restart: r.Restart})
	}
	client, err := paxos.NewClient(net, replicas, paxos.ClientOptions{
		TryTimeout:   300 * time.Millisecond,
		ElectTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	pool := mempool.NewPool(mempool.Config{
		Cap:           1024,
		BatchSize:     8,
		FlushInterval: 2 * time.Millisecond,
		MaxInFlight:   4,
	})
	batcher := mempool.NewBatcher(pool, func(ops [][]byte) func() error {
		p := client.StartBatch(ops)
		return func() error {
			_, err := p.Wait(25 * time.Second)
			return err
		}
	})

	inj := NewInjector(net, targets, Options{MaxDown: 2, Seed: seed})
	halt := startInjector(inj, 20*time.Millisecond)
	defer halt()

	const ops = 60
	var acked []string
	var ackWG sync.WaitGroup
	errs := make(chan error, ops)
	for i := 0; i < ops; i++ {
		id := fmt.Sprintf("op-%d", i)
		acked = append(acked, id)
		ackWG.Add(1)
		err := pool.Add(mempool.Op{ID: id, Lane: fmt.Sprintf("lane-%d", i%4), Data: []byte(id)}, func(err error) {
			defer ackWG.Done()
			if err != nil {
				errs <- fmt.Errorf("op %s: %w", id, err)
			}
		})
		if err != nil {
			t.Fatalf("add %d: %v (seed %d)", i, err, seed)
		}
		time.Sleep(3 * time.Millisecond)
	}
	waitAcks := make(chan struct{})
	go func() { defer close(waitAcks); ackWG.Wait() }()
	select {
	case <-waitAcks:
	case <-time.After(60 * time.Second):
		t.Fatalf("ops never all acked (seed %d, events %v)", seed, inj.Events())
	}
	close(errs)
	for err := range errs {
		t.Fatalf("%v (seed %d, events %v)", err, seed, inj.Events())
	}
	halt()
	batcher.Stop()
	if err := inj.HealAll(); err != nil {
		t.Fatalf("%v (seed %d)", err, seed)
	}

	// Convergence: every replica's deduped op stream must contain every
	// acked op and all streams must be identical. Waiting on applied
	// *heights* alone is not enough — replicas can agree on a floor while
	// the slots above it (re-proposed by the post-heal election) are still
	// uncommitted. Elections are retried inside the loop: a fresh election
	// fills crash-torn gaps with no-ops and re-broadcasts both the adopted
	// values and the chosen log, which is the only retransmission path for
	// an accept lost in flight (accepts are fire-once).
	converged := func() bool {
		want, _ := checkers[ids[0]].snapshot()
		have := make(map[string]bool, len(want))
		for _, op := range want {
			have[op] = true
		}
		for _, id := range acked {
			if !have[id] {
				return false
			}
		}
		for _, id := range ids[1:] {
			got, _ := checkers[id].snapshot()
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	deadline := time.Now().Add(30 * time.Second)
	for attempt := 0; !converged(); attempt++ {
		if time.Now().After(deadline) {
			var state []string
			for _, r := range replicas {
				applied, _ := checkers[r.ID()].snapshot()
				state = append(state, fmt.Sprintf("%s=%d", r.ID(), len(applied)))
			}
			t.Fatalf("replicas never converged: %v (seed %d, events %v)", state, seed, inj.Events())
		}
		// Rotate candidates: right after heal a stale higher ballot can
		// reject one replica's try while another's succeeds.
		_ = replicas[attempt%len(replicas)].BecomeLeader(2 * time.Second)
		for _, r := range replicas {
			r.Sync()
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Safety: contiguous exactly-once apply and identical deduped op
	// streams on every replica; every acked op present exactly once.
	want, bad := checkers[ids[0]].snapshot()
	if len(bad) > 0 {
		t.Fatalf("replica %s broke apply contract: %v (seed %d)", ids[0], bad, seed)
	}
	for _, id := range ids[1:] {
		got, bad := checkers[id].snapshot()
		if len(bad) > 0 {
			t.Fatalf("replica %s broke apply contract: %v (seed %d)", id, bad, seed)
		}
		if len(got) != len(want) {
			t.Fatalf("replica %s applied %d ops, %s applied %d (seed %d, events %v)",
				id, len(got), ids[0], len(want), seed, inj.Events())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replica %s diverges at op %d: %q vs %q (seed %d)", id, i, got[i], want[i], seed)
			}
		}
	}
	counts := make(map[string]int)
	for _, id := range want {
		counts[id]++
	}
	for _, id := range acked {
		if counts[id] != 1 {
			t.Fatalf("acked op %q applied %d times after dedup (seed %d, events %v)", id, counts[id], seed, inj.Events())
		}
	}
}

// TestChaosShardBatched runs the chain's batch-first submission path —
// mempool, batched PBFT requests, pipelined instances — under the
// crash/isolation schedule, with every transaction also submitted a
// second time to exercise duplicate suppression under faults. Chains
// must stay identical, audit-clean, and exactly-once.
func TestChaosShardBatched(t *testing.T) { chaosShardBatched(t, chaosSeed(t)) }

func chaosShardBatched(t *testing.T, seed int64) {
	logSeed(t, seed)
	net := netsim.New(faultyConfig(seed, 0))
	defer net.Close()

	shard, err := chain.NewShard(net, chain.ShardConfig{
		Name:    "s0",
		F:       1,
		Timeout: 25 * time.Second,
		PBFT:    pbft.Options{ViewTimeout: 250 * time.Millisecond},
		Mempool: mempool.Config{
			Cap:           1024,
			BatchSize:     8,
			FlushInterval: 2 * time.Millisecond,
			MaxInFlight:   4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = shard.Close() }()
	var targets []Target
	for _, r := range shard.Replicas() {
		r := r
		targets = append(targets, Target{ID: r.ID(), Crash: r.Crash, Restart: r.Restart})
	}
	inj := NewInjector(net, targets, Options{MaxDown: 1, Seed: seed})
	halt := startInjector(inj, 25*time.Millisecond)
	defer halt()

	// Unique keys: under failover retries a delayed batch may commit
	// after a younger one, so cross-batch per-key write order is only
	// guaranteed on the stable-primary path (asserted in the chain
	// package tests). Here the contract under faults is exactly-once,
	// identical audit-clean chains, and collapsed duplicates.
	const ops = 30
	var chans []<-chan chain.Result
	for i := 0; i < ops; i++ {
		tx := chain.Tx{
			ID:    fmt.Sprintf("ctx-%d", i),
			Kind:  chain.TxPut,
			Key:   fmt.Sprintf("key-%d", i),
			Value: []byte(fmt.Sprintf("val-%d", i)),
		}
		// Submit twice: the duplicate must be collapsed by the mempool,
		// not proposed again.
		chans = append(chans, shard.SubmitAsync(tx), shard.SubmitAsync(tx))
		time.Sleep(4 * time.Millisecond)
	}
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("submission %d: %v (seed %d, events %v)", i, res.Err, seed, inj.Events())
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("submission %d never resolved (seed %d, events %v)", i, seed, inj.Events())
		}
	}
	halt()
	if err := inj.HealAll(); err != nil {
		t.Fatalf("%v (seed %d)", err, seed)
	}

	// Post-heal liveness: fresh transactions drive the healed cluster.
	// Their request broadcasts arm view-change timers on every backup, so
	// a sequence gap torn by the schedule (a partially-prepared instance
	// whose primary died) gets view-changed away instead of stalling the
	// executed prefix forever.
	const post = 3
	for i := 0; i < post; i++ {
		select {
		case res := <-shard.SubmitAsync(chain.Tx{
			ID:    fmt.Sprintf("post-%d", i),
			Kind:  chain.TxPut,
			Key:   fmt.Sprintf("post-key-%d", i),
			Value: []byte("post"),
		}):
			if res.Err != nil {
				t.Fatalf("post-heal submit %d: %v (seed %d, events %v)", i, res.Err, seed, inj.Events())
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("post-heal submit %d never resolved (seed %d, events %v)", i, seed, inj.Events())
		}
	}

	// Convergence: every replica executes the full history.
	replicas := shard.Replicas()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var max uint64
		allEq := true
		for _, r := range replicas {
			if e := r.Executed(); e > max {
				max = e
			}
		}
		for _, r := range replicas {
			if r.Executed() != max {
				allEq = false
			}
		}
		if allEq && max > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never converged (seed %d, events %v)", seed, inj.Events())
		}
		for _, r := range replicas {
			r.Sync()
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Safety: identical audit-clean chains, each tx ID exactly once, and
	// per-key submission order preserved (last write per key wins).
	peers := shard.Peers()
	ref := peers[0].Blocks()
	if bad, err := chain.VerifyBlocks(ref); err != nil {
		t.Fatalf("peer %s chain fails audit at block %d: %v (seed %d)", peers[0].ID(), bad, err, seed)
	}
	counts := make(map[string]int)
	for _, b := range ref {
		for _, tx := range b.Txs {
			counts[tx.ID]++
		}
	}
	for i := 0; i < ops; i++ {
		if c := counts[fmt.Sprintf("ctx-%d", i)]; c != 1 {
			t.Fatalf("tx ctx-%d applied %d times (seed %d, events %v)", i, c, seed, inj.Events())
		}
	}
	for _, p := range peers[1:] {
		blocks := p.Blocks()
		if len(blocks) != len(ref) {
			t.Fatalf("peer %s height %d, %s height %d (seed %d, events %v)",
				p.ID(), len(blocks), peers[0].ID(), len(ref), seed, inj.Events())
		}
		if h := firstDivergence(ref, blocks); h >= 0 {
			t.Fatalf("peer %s diverges from %s at height %d: txs %v, %s has %v (seed %d, events %v)",
				p.ID(), peers[0].ID(), ref[h].Height, txIDs(blocks[h]), peers[0].ID(), txIDs(ref[h]), seed, inj.Events())
		}
		if bad, err := chain.VerifyBlocks(blocks); err != nil {
			t.Fatalf("peer %s chain fails audit at block %d: %v (seed %d)", p.ID(), bad, err, seed)
		}
	}
	for _, p := range peers {
		for i := 0; i < ops; i++ {
			want := fmt.Sprintf("val-%d", i)
			got, err := p.Get(fmt.Sprintf("key-%d", i))
			if err != nil || string(got) != want {
				t.Fatalf("peer %s key-%d = %q, %v; want %q (seed %d, events %v)",
					p.ID(), i, got, err, want, seed, inj.Events())
			}
		}
	}
	// The mempool must actually have batched and collapsed duplicates.
	st := shard.Stats()
	if st.Batches.Batches == 0 || st.Batches.Ops != ops+post {
		t.Fatalf("batch stats = %+v, want %d ops batched (seed %d)", st.Batches, ops+post, seed)
	}
	if st.Pool.DupPending+st.Pool.DupExecuted != ops {
		t.Fatalf("dup counters = %d+%d, want %d collapsed duplicates (seed %d)",
			st.Pool.DupPending, st.Pool.DupExecuted, ops, seed)
	}
}
