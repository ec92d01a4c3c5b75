package chaos

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"prever/internal/chain"
	"prever/internal/netsim"
	"prever/internal/paxos"
	"prever/internal/pbft"
)

// chaosSeed returns the schedule seed: CHAOS_SEED if set (to replay a
// failing run), otherwise the clock. Every test logs the seed it used.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		return v
	}
	return time.Now().UnixNano()
}

// startInjector runs inj's schedule every interval until halt is called.
// halt waits for the schedule to stop and may be called more than once,
// so a test both defers it (a failing test must not leave the schedule
// running) and calls it where the schedule ends.
func startInjector(inj *Injector, every time.Duration) (halt func()) {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); inj.Run(stop, every) }()
	return sync.OnceFunc(func() {
		close(stop)
		<-done
	})
}

func logSeed(t *testing.T, seed int64) {
	t.Helper()
	t.Logf("chaos seed: %d (replay with CHAOS_SEED=%d)", seed, seed)
}

// faultyConfig is the lossy-network profile the chaos suite runs under:
// jittered latency, a little loss, duplicates, and reordering.
func faultyConfig(seed int64, drop float64) netsim.Config {
	return netsim.Config{
		Jitter:        200 * time.Microsecond,
		DropRate:      drop,
		DuplicateRate: 0.05,
		ReorderRate:   0.1,
		ReorderDelay:  time.Millisecond,
		Seed:          seed,
	}
}

// slotChecker verifies the paxos apply contract under chaos: contiguous
// slots, each applied exactly once.
type slotChecker struct {
	mu     sync.Mutex
	next   uint64
	values []string
	bad    []string
}

func (c *slotChecker) apply(slot uint64, value []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if slot != c.next {
		c.bad = append(c.bad, fmt.Sprintf("applied slot %d, expected %d", slot, c.next))
		return
	}
	c.next++
	c.values = append(c.values, string(value))
}

func (c *slotChecker) snapshot() (values, bad []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.values...), append([]string(nil), c.bad...)
}

func TestChaosPaxos(t *testing.T) { chaosPaxos(t, chaosSeed(t)) }

func chaosPaxos(t *testing.T, seed int64) {
	logSeed(t, seed)
	net := netsim.New(faultyConfig(seed, 0.01))
	defer net.Close()

	ids := []string{"pax0", "pax1", "pax2", "pax3", "pax4"}
	checkers := make(map[string]*slotChecker)
	var replicas []*paxos.Replica
	var targets []Target
	for _, id := range ids {
		sc := &slotChecker{}
		checkers[id] = sc
		r, err := paxos.NewReplica(net, id, ids, sc.apply)
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

	inj := NewInjector(net, targets, Options{MaxDown: 2, Seed: seed})
	halt := startInjector(inj, 20*time.Millisecond)
	defer halt()

	const ops = 40
	var acked []string
	for i := 0; i < ops; i++ {
		v := fmt.Sprintf("op-%d", i)
		if _, err := client.Propose([]byte(v), 20*time.Second); err != nil {
			t.Fatalf("propose %d: %v (seed %d, events %v)", i, err, seed, inj.Events())
		}
		acked = append(acked, v)
		time.Sleep(5 * time.Millisecond)
	}
	halt()
	if err := inj.HealAll(); err != nil {
		t.Fatalf("%v (seed %d)", err, seed)
	}

	// Liveness: the healed cluster must keep accepting proposals.
	for i := 0; i < 3; i++ {
		v := fmt.Sprintf("post-%d", i)
		if _, err := client.Propose([]byte(v), 20*time.Second); err != nil {
			t.Fatalf("post-heal propose %d: %v (seed %d)", i, err, seed)
		}
		acked = append(acked, v)
	}
	// Convergence: every replica's applied stream must contain every
	// acked value and all streams must be identical. Waiting on applied
	// heights alone is not enough — replicas can agree on a floor while
	// slots above it are still uncommitted. Elections are retried inside
	// the loop (rotating candidates): a fresh election fills crash-torn
	// gaps with no-ops and re-broadcasts adopted and chosen values, which
	// is the only retransmission path for an accept lost in flight.
	converged := func() bool {
		want, _ := checkers[ids[0]].snapshot()
		have := make(map[string]bool, len(want))
		for _, v := range want {
			have[v] = true
		}
		for _, v := range acked {
			if !have[v] {
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
		_ = replicas[attempt%len(replicas)].BecomeLeader(2 * time.Second)
		for _, r := range replicas {
			r.Sync()
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Safety: contiguous exactly-once apply, identical logs everywhere,
	// and every acked value present. (A timeout retry may legally commit
	// a value into more than one slot; acked means at-least-once here,
	// with per-slot exactly-once.)
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
			t.Fatalf("replica %s applied %d values, %s applied %d (seed %d)", id, len(got), ids[0], len(want), seed)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replica %s diverges at slot %d: %q vs %q (seed %d)", id, i, got[i], want[i], seed)
			}
		}
	}
	present := make(map[string]bool, len(want))
	for _, v := range want {
		present[v] = true
	}
	for _, v := range acked {
		if !present[v] {
			t.Fatalf("acked value %q missing from converged log (seed %d, events %v)", v, seed, inj.Events())
		}
	}
}

// seqChecker verifies the pbft apply contract under chaos: strictly
// increasing sequence numbers, each op applied exactly once per replica.
type seqChecker struct {
	mu      sync.Mutex
	lastSeq uint64
	started bool
	ops     []string
	bad     []string
}

func (c *seqChecker) apply(seq uint64, req pbft.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started && seq <= c.lastSeq {
		c.bad = append(c.bad, fmt.Sprintf("seq %d after %d", seq, c.lastSeq))
	}
	c.started = true
	c.lastSeq = seq
	c.ops = append(c.ops, string(req.Op))
}

func (c *seqChecker) snapshot() (ops, bad []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.ops...), append([]string(nil), c.bad...)
}

func TestChaosPBFT(t *testing.T) { chaosPBFT(t, chaosSeed(t)) }

func chaosPBFT(t *testing.T, seed int64) {
	logSeed(t, seed)
	// DropRate 0: PBFT has no retransmission layer, so chaos comes from
	// crashes, isolation, duplicates, and reordering instead of loss.
	net := netsim.New(faultyConfig(seed, 0))
	defer net.Close()

	const f = 1
	ids := []string{"bft0", "bft1", "bft2", "bft3"}
	checkers := make(map[string]*seqChecker)
	var replicas []*pbft.Replica
	var targets []Target
	for _, id := range ids {
		sc := &seqChecker{}
		checkers[id] = sc
		r, err := pbft.NewReplica(net, id, ids, f, sc.apply, pbft.Options{ViewTimeout: 250 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
		targets = append(targets, Target{ID: id, Crash: r.Crash, Restart: r.Restart})
	}
	client, err := pbft.NewClient(net, replicas, "chaos-cli", pbft.ClientOptions{
		TryTimeout: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	inj := NewInjector(net, targets, Options{MaxDown: 1, Seed: seed})
	halt := startInjector(inj, 20*time.Millisecond)
	defer halt()

	const ops = 30
	var acked []string
	for i := 0; i < ops; i++ {
		op := fmt.Sprintf("op-%d", i)
		if err := client.Submit([]byte(op), 25*time.Second); err != nil {
			t.Fatalf("submit %d: %v (seed %d, events %v)", i, err, seed, inj.Events())
		}
		acked = append(acked, op)
		time.Sleep(5 * time.Millisecond)
	}
	halt()
	if err := inj.HealAll(); err != nil {
		t.Fatalf("%v (seed %d)", err, seed)
	}

	// Liveness after heal.
	for i := 0; i < 3; i++ {
		op := fmt.Sprintf("post-%d", i)
		if err := client.Submit([]byte(op), 25*time.Second); err != nil {
			t.Fatalf("post-heal submit %d: %v (seed %d)", i, err, seed)
		}
		acked = append(acked, op)
	}

	// Convergence: all replicas execute the same sequence count.
	deadline := time.Now().Add(15 * time.Second)
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
			var state []string
			for _, r := range replicas {
				state = append(state, fmt.Sprintf("%s=%d", r.ID(), r.Executed()))
			}
			t.Fatalf("replicas never converged: %v (seed %d, events %v)", state, seed, inj.Events())
		}
		for _, r := range replicas {
			r.Sync()
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Safety: monotone seqs, identical op streams, every acked op exactly
	// once (client-seq dedup makes retries exactly-once in pbft).
	want, bad := checkers[ids[0]].snapshot()
	if len(bad) > 0 {
		t.Fatalf("replica %s broke seq contract: %v (seed %d)", ids[0], bad, seed)
	}
	for _, id := range ids[1:] {
		got, bad := checkers[id].snapshot()
		if len(bad) > 0 {
			t.Fatalf("replica %s broke seq contract: %v (seed %d)", id, bad, seed)
		}
		if len(got) != len(want) {
			t.Fatalf("replica %s applied %d ops, %s applied %d (seed %d, events %v)",
				id, len(got), ids[0], len(want), seed, inj.Events())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replica %s diverges at %d: %q vs %q (seed %d)", id, i, got[i], want[i], seed)
			}
		}
	}
	counts := make(map[string]int)
	for _, op := range want {
		counts[op]++
	}
	for _, op := range acked {
		if counts[op] != 1 {
			t.Fatalf("acked op %q applied %d times (seed %d, events %v)", op, counts[op], seed, inj.Events())
		}
	}
}

func TestChaosChain(t *testing.T) { chaosChain(t, chaosSeed(t)) }

func chaosChain(t *testing.T, seed int64) {
	logSeed(t, seed)
	net := netsim.New(faultyConfig(seed, 0))
	defer net.Close()

	shard, err := chain.NewShard(net, chain.ShardConfig{
		Name:    "s0",
		F:       1,
		Timeout: 25 * time.Second,
		PBFT:    pbft.Options{ViewTimeout: 250 * time.Millisecond},
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

	const ops = 20
	for i := 0; i < ops; i++ {
		tx := chain.Tx{Kind: chain.TxPut, Key: fmt.Sprintf("key-%d", i), Value: []byte(fmt.Sprintf("val-%d", i))}
		if res := <-shard.SubmitAsync(tx); res.Err != nil {
			t.Fatalf("submit %d: %v (seed %d, events %v)", i, res.Err, seed, inj.Events())
		}
		time.Sleep(5 * time.Millisecond)
	}
	halt()
	if err := inj.HealAll(); err != nil {
		t.Fatalf("%v (seed %d)", err, seed)
	}

	// Convergence: every replica executes the full history.
	replicas := shard.Replicas()
	deadline := time.Now().Add(15 * time.Second)
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

	// Safety: identical chains on every peer, audit-clean, state correct.
	peers := shard.Peers()
	ref := peers[0].Blocks()
	if bad, err := chain.VerifyBlocks(ref); err != nil {
		t.Fatalf("peer %s chain fails audit at block %d: %v (seed %d)", peers[0].ID(), bad, err, seed)
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
				t.Fatalf("peer %s key-%d = %q, %v; want %q (seed %d)", p.ID(), i, got, err, want, seed)
			}
		}
	}
}

// firstDivergence returns the first index at which two peers' chains
// hold blocks of different hashes, or -1. Blocks are hash-linked, so
// once one block differs every later one does: two chains of one height
// end in different blocks exactly when this finds an index, the first.
func firstDivergence(a, b []chain.Block) int {
	for h := 0; h < len(a) && h < len(b); h++ {
		if a[h].Hash != b[h].Hash {
			return h
		}
	}
	return -1
}

// txIDs lists a block's transaction ids in order.
func txIDs(b chain.Block) []string {
	ids := make([]string, len(b.Txs))
	for i, tx := range b.Txs {
		ids[i] = tx.ID
	}
	return ids
}
