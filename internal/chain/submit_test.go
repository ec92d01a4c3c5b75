package chain

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prever/internal/mempool"
	"prever/internal/netsim"
)

// appliedIDs collects every tx id applied at a peer, in order.
func appliedIDs(p *Peer) []string {
	var out []string
	for _, b := range p.Blocks() {
		for _, tx := range b.Txs {
			out = append(out, tx.ID)
		}
	}
	return out
}

func TestSubmitBatchCommitsAllAndBatches(t *testing.T) {
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	s, err := NewShard(net, ShardConfig{
		Name:    "b0",
		F:       1,
		Timeout: 5 * time.Second,
		Mempool: mempool.Config{BatchSize: 16, FlushInterval: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	const n = 64
	txs := make([]Tx, n)
	for i := range txs {
		txs[i] = Tx{Kind: TxPut, Key: fmt.Sprintf("k%d", i), Value: []byte(fmt.Sprintf("v%d", i))}
	}
	for i, res := range s.SubmitBatch(txs) {
		if res.Err != nil {
			t.Fatalf("tx %d: %v", i, res.Err)
		}
		if res.TxID == "" {
			t.Fatalf("tx %d: no id assigned", i)
		}
	}
	for _, p := range s.Peers() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if ids := appliedIDs(p); len(ids) == n {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("peer %s applied %d/%d txs", p.ID(), len(appliedIDs(p)), n)
			}
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < n; i++ {
			v, err := p.Get(fmt.Sprintf("k%d", i))
			if err != nil || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("peer %s: k%d = %q, %v", p.ID(), i, v, err)
			}
		}
	}
	st := s.Stats()
	if st.Submitted != n || st.Accepted != n || st.Rejected != 0 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Batches.Batches == 0 || st.Batches.Ops != n {
		t.Fatalf("batch stats = %+v", st.Batches)
	}
	// 64 txs at batch size 16 must not go one-per-instance.
	if st.Batches.Batches >= n {
		t.Fatalf("no batching happened: %d batches for %d txs", st.Batches.Batches, n)
	}
	if st.TotalCommitNanos <= 0 {
		t.Fatal("commit latency not recorded")
	}
}

func TestSubmitAsyncSameKeyKeepsOrder(t *testing.T) {
	net := netsim.New(netsim.Config{Jitter: 100 * time.Microsecond, Seed: 11})
	t.Cleanup(net.Close)
	s, err := NewShard(net, ShardConfig{
		Name:    "ord",
		F:       1,
		Timeout: 5 * time.Second,
		Mempool: mempool.Config{BatchSize: 8, FlushInterval: time.Millisecond, MaxInFlight: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	// All writes hit one key: the final value must be the last submitted.
	const n = 40
	var chans []<-chan Result
	for i := 0; i < n; i++ {
		chans = append(chans, s.SubmitAsync(Tx{Kind: TxPut, Key: "counter", Value: []byte(fmt.Sprintf("%d", i))}))
	}
	for i, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatalf("tx %d: %v", i, res.Err)
		}
	}
	for _, p := range s.Peers() {
		deadline := time.Now().Add(5 * time.Second)
		var v []byte
		for time.Now().Before(deadline) {
			v, _ = p.Get("counter")
			if string(v) == fmt.Sprintf("%d", n-1) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if string(v) != fmt.Sprintf("%d", n-1) {
			t.Fatalf("peer %s: counter = %q, want %d", p.ID(), v, n-1)
		}
	}
}

func TestMempoolAdmissionControlRejects(t *testing.T) {
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	s, err := NewShard(net, ShardConfig{
		Name:    "full",
		F:       1,
		Timeout: 5 * time.Second,
		// A tiny pool with a long flush interval: adds pile up un-drained.
		Mempool: mempool.Config{Cap: 4, BatchSize: 64, FlushInterval: time.Minute, MaxInFlight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rejected int
	var pending []<-chan Result
	for i := 0; i < 12; i++ {
		ch := s.SubmitAsync(Tx{Kind: TxPut, Key: fmt.Sprintf("k%d", i), Value: []byte("v")})
		select {
		case res := <-ch:
			if !errors.Is(res.Err, mempool.ErrFull) {
				t.Fatalf("tx %d resolved early with %v", i, res.Err)
			}
			rejected++
		default:
			pending = append(pending, ch)
		}
	}
	if rejected == 0 {
		t.Fatal("no admission rejections despite cap 4")
	}
	if st := s.Stats(); st.Rejected != int64(rejected) || st.Pool.RejectedFull != int64(rejected) {
		t.Fatalf("stats rejected = %d / pool %d, want %d", st.Rejected, st.Pool.RejectedFull, rejected)
	}
	// Close fails the queued remainder; every channel resolves.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range pending {
		select {
		case res := <-ch:
			if !errors.Is(res.Err, mempool.ErrClosed) {
				t.Fatalf("pending %d: err = %v", i, res.Err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("pending %d never resolved after Close", i)
		}
	}
}

// A partial batch handed to an idle shard by SubmitBatch commits at once:
// the flush interval is for filling batches while consensus is busy.
func TestSubmitBatchDoesNotLingerWhenIdle(t *testing.T) {
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	s, err := NewShard(net, ShardConfig{
		Name:    "idle",
		F:       1,
		Timeout: 5 * time.Second,
		Mempool: mempool.Config{BatchSize: 64, FlushInterval: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	txs := make([]Tx, 16)
	for i := range txs {
		txs[i] = Tx{Kind: TxPut, Key: fmt.Sprintf("k%d", i), Value: []byte("v")}
	}
	done := make(chan []Result, 1)
	go func() { done <- s.SubmitBatch(txs) }()
	select {
	case results := <-done:
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("tx %d: %v", i, res.Err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SubmitBatch waited out the flush interval on an idle shard")
	}
	if b := s.Stats().Batches; b.Batches != 1 || b.Ops != 16 {
		t.Fatalf("proposed %d batches of %d ops in all, want one batch of 16", b.Batches, b.Ops)
	}
}

// TestRetriedTxNotReproposed is the dup-suppression regression test: a
// caller that resubmits the same transaction ID while the first copy is
// pending (or just committed) must not get it proposed twice — under a
// duplicating, jittery network the chains must carry each ID exactly once
// and stay identical across peers.
func TestRetriedTxNotReproposed(t *testing.T) {
	net := netsim.New(netsim.Config{
		Jitter:        200 * time.Microsecond,
		DuplicateRate: 0.2,
		Seed:          42,
	})
	t.Cleanup(net.Close)
	s, err := NewShard(net, ShardConfig{
		Name:    "dup",
		F:       1,
		Timeout: 5 * time.Second,
		Mempool: mempool.Config{BatchSize: 8, FlushInterval: time.Millisecond, MaxInFlight: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	const n = 25
	var chans []<-chan Result
	for i := 0; i < n; i++ {
		tx := Tx{ID: fmt.Sprintf("retry-%d", i), Kind: TxPut, Key: fmt.Sprintf("k%d", i), Value: []byte("v")}
		// Submit every transaction three times: once normally, once as an
		// immediate client retry (pending dup), and once more for luck.
		chans = append(chans, s.SubmitAsync(tx), s.SubmitAsync(tx), s.SubmitAsync(tx))
	}
	for i, ch := range chans {
		// Dups that land after their first copy committed are acked with
		// ErrDuplicate — an explicit "already done", not a failure.
		if res := <-ch; res.Err != nil && !errors.Is(res.Err, ErrDuplicate) {
			t.Fatalf("submission %d: %v", i, res.Err)
		}
	}
	st := s.Stats()
	if st.Pool.DupPending+st.Pool.DupExecuted != 2*n {
		t.Fatalf("dup counters = %d pending + %d executed, want %d total",
			st.Pool.DupPending, st.Pool.DupExecuted, 2*n)
	}
	// Every peer's chain carries each ID exactly once, and all chains are
	// identical.
	waitIDs := func(p *Peer) []string {
		deadline := time.Now().Add(5 * time.Second)
		for {
			ids := appliedIDs(p)
			if len(ids) >= n || time.Now().After(deadline) {
				return ids
			}
			time.Sleep(time.Millisecond)
		}
	}
	ref := waitIDs(s.Peers()[0])
	seen := make(map[string]int)
	for _, id := range ref {
		seen[id]++
	}
	for i := 0; i < n; i++ {
		if c := seen[fmt.Sprintf("retry-%d", i)]; c != 1 {
			t.Fatalf("retry-%d applied %d times", i, c)
		}
	}
	for _, p := range s.Peers()[1:] {
		got := waitIDs(p)
		if len(got) != len(ref) {
			t.Fatalf("peer %s applied %d txs, peer 0 applied %d", p.ID(), len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("peer %s applied[%d] = %s, peer 0 has %s", p.ID(), i, got[i], ref[i])
			}
		}
	}
	// A late retry after commit is acked from the chain's id set with the
	// ErrDuplicate sentinel.
	late := <-s.SubmitAsync(Tx{ID: "retry-0", Kind: TxPut, Key: "k0", Value: []byte("v")})
	if !errors.Is(late.Err, ErrDuplicate) {
		t.Fatalf("late retry: err = %v, want ErrDuplicate", late.Err)
	}
	if st := s.Stats(); st.Pool.DupExecuted == 0 {
		t.Fatal("late retry was not counted as an executed duplicate")
	}
}

func TestShardedStatsAggregates(t *testing.T) {
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	var shards []*Shard
	for i := 0; i < 2; i++ {
		s, err := NewShard(net, ShardConfig{
			Name:    fmt.Sprintf("agg%d", i),
			F:       1,
			Timeout: 5 * time.Second,
			Mempool: mempool.Config{BatchSize: 8, FlushInterval: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, s)
	}
	c, err := NewSharded(shards...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	const n = 32
	txs := make([]Tx, n)
	for i := range txs {
		txs[i] = Tx{Kind: TxPut, Key: fmt.Sprintf("key-%d", i), Value: []byte("v")}
	}
	for i, res := range c.SubmitBatch(txs) {
		if res.Err != nil {
			t.Fatalf("tx %d: %v", i, res.Err)
		}
	}
	var st Stats
	for _, s := range shards {
		st.Merge(s.Stats())
	}
	if st.Submitted != n || st.Accepted != n {
		t.Fatalf("aggregate stats = %+v", st)
	}
	if st.Batches.Ops != n {
		t.Fatalf("aggregate batch ops = %d, want %d", st.Batches.Ops, n)
	}
	// Both shards should have seen traffic (sha256 split across 2 shards
	// over 32 keys makes an empty shard astronomically unlikely).
	for _, s := range shards {
		if s.Stats().Submitted == 0 {
			t.Fatalf("shard %s saw no traffic", s.Name)
		}
	}
}

// wantDuplicates resubmits transactions whose ids are in s's chain: each
// must come back ErrDuplicate and be counted as one, and none may be
// proposed — no batch, no block.
func wantDuplicates(t *testing.T, s *Shard, txs ...Tx) {
	t.Helper()
	before := s.Stats()
	height := s.Peers()[0].Height()
	for _, tx := range txs {
		if res := <-s.SubmitAsync(tx); !errors.Is(res.Err, ErrDuplicate) || res.TxID != tx.ID {
			t.Fatalf("resubmitting %s: id %q, err = %v, want ErrDuplicate", tx.ID, res.TxID, res.Err)
		}
	}
	after := s.Stats()
	n := int64(len(txs))
	if after.Duplicates-before.Duplicates != n || after.Pool.DupExecuted-before.Pool.DupExecuted != n {
		t.Fatalf("counted %d duplicates (%d at the pool), want %d",
			after.Duplicates-before.Duplicates, after.Pool.DupExecuted-before.Pool.DupExecuted, n)
	}
	if after.Batches.Ops != before.Batches.Ops || after.Accepted != before.Accepted {
		t.Fatalf("a duplicate was proposed: %d ops in batches (was %d), %d accepted (was %d)",
			after.Batches.Ops, before.Batches.Ops, after.Accepted, before.Accepted)
	}
	if h := s.Peers()[0].Height(); h != height {
		t.Fatalf("height %d after the duplicates, was %d", h, height)
	}
}

// TestCommittedIDIsDuplicateWithoutWindow: what the shard remembers of a
// committed id is the chain itself, so a retry is a duplicate however
// much was committed in between — an id the caller chose and one
// SubmitAsync minted alike.
func TestCommittedIDIsDuplicateWithoutWindow(t *testing.T) {
	others := 100_000
	if raceEnabled || testing.Short() {
		others = 5_000
	}
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	s, err := NewShard(net, ShardConfig{Name: "nw", F: 1, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	first := s.SubmitBatch([]Tx{
		{ID: "client-chosen", Kind: TxPut, Key: "chosen", Value: []byte("first")},
		{Kind: TxPut, Key: "minted", Value: []byte("first")},
	})
	for i, res := range first {
		if res.Err != nil {
			t.Fatalf("tx %d: %v", i, res.Err)
		}
	}
	retry := []Tx{
		{ID: first[0].TxID, Kind: TxPut, Key: "chosen", Value: []byte("again")},
		{ID: first[1].TxID, Kind: TxPut, Key: "minted", Value: []byte("again")},
	}
	wantDuplicates(t, s, retry...)
	batch := make([]Tx, 1000) // ids are minted per submission, so one batch serves every round
	for i := range batch {
		batch[i] = Tx{Kind: TxDelete, Key: "k"}
	}
	for done := 0; done < others; done += len(batch) {
		for i, res := range s.SubmitBatch(batch) {
			if res.Err != nil {
				t.Fatalf("commit %d: %v", done+i, res.Err)
			}
		}
	}
	wantDuplicates(t, s, retry...)
	for _, key := range []string{"chosen", "minted"} {
		if v, err := s.Peers()[0].Get(key); err != nil || string(v) != "first" {
			t.Fatalf("%s = %q, %v after the retries", key, v, err)
		}
	}
}

// TestAdmissionDoesNotWaitForApply: the pool asks the chain about every
// id that is not pending, and a peer holds its lock for a whole
// applyBatch. The question must not queue behind that lock.
func TestAdmissionDoesNotWaitForApply(t *testing.T) {
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	s, err := NewShard(net, ShardConfig{Name: "nl", F: 1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	tx := Tx{ID: "once", Kind: TxPut, Key: "k", Value: []byte("v")}
	if res := <-s.SubmitAsync(tx); res.Err != nil {
		t.Fatal(res.Err)
	}
	for _, p := range s.Peers() {
		p.mu.Lock()
	}
	ch := s.SubmitAsync(tx)
	var res Result
	select {
	case res = <-ch:
	case <-time.After(2 * time.Second):
	}
	for _, p := range s.Peers() {
		p.mu.Unlock()
	}
	if !errors.Is(res.Err, ErrDuplicate) {
		t.Fatalf("with every peer's lock held the resubmission got %v, want ErrDuplicate at once", res.Err)
	}
}

// TestClientChosenIDsDuringApply submits caller-chosen ids from several
// goroutines while earlier batches are being applied, and retries each as
// soon as it commits: admission reads the id set that applyBatch is
// writing (run under -race), every retry is a duplicate, and each id is
// in the chain once.
func TestClientChosenIDsDuringApply(t *testing.T) {
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	s, err := NewShard(net, ShardConfig{
		Name: "cc", F: 1, Timeout: 10 * time.Second,
		Mempool: mempool.Config{BatchSize: 8, FlushInterval: 200 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	const workers, each = 4, 100
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < each; i++ {
				tx := Tx{ID: fmt.Sprintf("w%d:%d", w, i), Kind: TxPut, Key: fmt.Sprintf("k%d", w), Value: []byte("v")}
				if res := <-s.SubmitAsync(tx); res.Err != nil {
					errs <- fmt.Errorf("%s: %w", tx.ID, res.Err)
					return
				}
				if res := <-s.SubmitAsync(tx); !errors.Is(res.Err, ErrDuplicate) {
					errs <- fmt.Errorf("retry of %s: err = %v, want ErrDuplicate", tx.ID, res.Err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	waitHeights(t, s)
	for _, p := range s.Peers() {
		seen := make(map[string]int)
		for _, id := range appliedIDs(p) {
			seen[id]++
		}
		if len(seen) != workers*each {
			t.Fatalf("%s holds %d ids, want %d", p.ID(), len(seen), workers*each)
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("%s applied %s %d times", p.ID(), id, c)
			}
		}
	}
	if st := s.Stats(); st.Duplicates != workers*each || st.Accepted != workers*each {
		t.Fatalf("stats: %d accepted, %d duplicates, want %d of each", st.Accepted, st.Duplicates, workers*each)
	}
}

// TestAssignedIDFormat pins the ids a shard assigns: "<shard>-<nonce>-tx-<n>"
// for a transaction submitted without one and "<shard>-<nonce>-ptx-<n>" for
// a private put, n the shard's sequence in plain decimal. They are inside
// committed transaction bytes, so they may not change form.
func TestAssignedIDFormat(t *testing.T) {
	_, s := newShard(t, "idfmt", map[string][]string{"c": {"idfmt/peer0"}})
	if !regexp.MustCompile(`^[0-9a-f]{12}$`).MatchString(s.nonce) {
		t.Fatalf("boot nonce %q is not 12 hex digits", s.nonce)
	}
	var got []string
	for _, res := range s.SubmitBatch([]Tx{
		{Kind: TxPut, Key: "a", Value: []byte("1")},
		{ID: "mine", Kind: TxPut, Key: "b", Value: []byte("2")},
		{Kind: TxDelete, Key: "a"},
	}) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		got = append(got, res.TxID)
	}
	res := <-s.SubmitPrivate("c", "p", []byte("secret"))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	got = append(got, res.TxID)
	want := []string{"idfmt-" + s.nonce + "-tx-1", "mine", "idfmt-" + s.nonce + "-tx-2", "idfmt-" + s.nonce + "-ptx-3"}
	if !slices.Equal(got, want) {
		t.Fatalf("assigned ids %q, want %q", got, want)
	}
	for _, n := range []uint64{9, 99, 1 << 32, math.MaxUint64 - 1} {
		s.seq.Store(n)
		if id, want := s.nextID(s.txIDs), fmt.Sprintf("%s-%s-tx-%d", s.Name, s.nonce, n+1); id != want {
			t.Fatalf("id after sequence %d = %q, want %q", n, id, want)
		}
	}
}

// nextID mints one id under prefix (s.txIDs or s.ptxIDs) as every
// submission does: it admits a put without one and returns the id its
// result carries.
func (s *Shard) nextID(prefix string) string {
	b := s.submit(encodeTxs([]Tx{{Kind: TxPut, Key: "next-id", Value: []byte("v")}}), prefix, nil, nil)
	s.pool.Flush()
	return (<-b.done).TxID
}

// countExecuted rebuilds s's pool with an Executed hook that counts its
// calls before asking the peers, as the shard's own hook does. Call it
// before anything is submitted.
func countExecuted(s *Shard) *atomic.Int64 {
	s.batcher.Stop()
	_ = s.pool.Close()
	var calls atomic.Int64
	cfg := s.pool.Config()
	ask := cfg.Executed
	cfg.Executed = func(id string) bool {
		calls.Add(1)
		return ask(id)
	}
	s.pool = mempool.NewPool(cfg)
	s.batcher = mempool.NewBatcher(s.pool, s.propose)
	return &calls
}

// TestMintedIDsAreNotLookedUp: the peers' id sets are asked about the
// ids callers chose and never about the ones the shard minted, and a
// caller's id is still a duplicate once it committed.
func TestMintedIDsAreNotLookedUp(t *testing.T) {
	_, s := newShard(t, "nolook", map[string][]string{"c": {"nolook/peer0"}})
	calls := countExecuted(s)
	txs := make([]Tx, 64)
	for i := range txs {
		txs[i] = Tx{Kind: TxPut, Key: fmt.Sprintf("k%d", i), Value: []byte("v")}
	}
	for _, res := range s.SubmitBatch(txs) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if res := <-s.SubmitAsync(txs[0]); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := <-s.SubmitPrivate("c", "p", []byte("secret")); res.Err != nil {
		t.Fatal(res.Err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("Executed was asked %d times about minted ids, want 0", n)
	}
	chosen := Tx{ID: "chosen", Kind: TxPut, Key: "c", Value: []byte("v")}
	if res := <-s.SubmitAsync(chosen); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := <-s.SubmitAsync(chosen); !errors.Is(res.Err, ErrDuplicate) {
		t.Fatalf("resubmitting a committed chosen id: %v, want ErrDuplicate", res.Err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("Executed was asked %d times about the chosen id, want 2", n)
	}
}

// TestUnmintedIDIsRefused: a caller may choose an id in the form the
// shard mints. One whose number the shard has not minted yet is refused,
// however large, and moves nothing: the ids minted after it are fresh,
// each write lands, and a retry of one of them is a duplicate.
func TestUnmintedIDIsRefused(t *testing.T) {
	_, s := newShard(t, "claim", nil)
	for _, n := range []uint64{1, 5, math.MaxUint64} {
		id := s.txIDs + strconv.FormatUint(n, 10)
		if res := <-s.SubmitAsync(Tx{ID: id, Kind: TxPut, Key: "mine", Value: []byte("caller")}); !errors.Is(res.Err, ErrUnmintedID) || res.TxID != id {
			t.Fatalf("claiming %s: %+v, want ErrUnmintedID", id, res)
		}
	}
	if n := s.seq.Load(); n != 0 {
		t.Fatalf("refused claims moved the sequence to %d", n)
	}
	txs := make([]Tx, 64)
	for i := range txs {
		txs[i] = Tx{Kind: TxPut, Key: fmt.Sprintf("k%d", i), Value: []byte(fmt.Sprint(i))}
	}
	for i, res := range s.SubmitBatch(txs) {
		if res.Err != nil {
			t.Fatalf("tx %d: %v", i, res.Err)
		}
		if want := fmt.Sprintf("%s%d", s.txIDs, 1+i); res.TxID != want {
			t.Fatalf("tx %d minted %q, want %q", i, res.TxID, want)
		}
	}
	retry := Tx{ID: s.txIDs + "5", Kind: TxPut, Key: "k4", Value: []byte("again")}
	if res := <-s.SubmitAsync(retry); !errors.Is(res.Err, ErrDuplicate) {
		t.Fatalf("retrying a minted id: %v, want ErrDuplicate", res.Err)
	}
	waitHeights(t, s)
	for _, p := range s.Peers() {
		for i := range txs {
			if v, err := p.Get(txs[i].Key); err != nil || string(v) != fmt.Sprint(i) {
				t.Fatalf("%s: %s = %q, %v", p.ID(), txs[i].Key, v, err)
			}
		}
		if _, err := p.Get("mine"); err == nil {
			t.Fatalf("%s applied a refused claim", p.ID())
		}
	}
}

// newBareShard is a shard with a pool and nothing behind it: no peers,
// no consensus and no batcher. A test drains and resolves the pool.
func newBareShard() *Shard {
	s := &Shard{Name: "s0", nonce: "a1b2c3d4e5f6", cfg: ShardConfig{MaxTxBytes: DefaultMaxTxBytes}}
	s.txIDs, s.ptxIDs = s.Name+"-"+s.nonce+"-tx-", s.Name+"-"+s.nonce+"-ptx-"
	s.pool = mempool.NewPool(mempool.Config{Cap: 4096, BatchSize: 64, Executed: func(string) bool { return false }})
	return s
}

// admitOne submits one encoded transaction to a bare shard and returns
// the op the pool queued for it (the zero Op if it queued none), and the
// transaction's result once that op resolved.
func admitOne(s *Shard, enc []byte) (mempool.Op, Result) {
	b := s.submit([][]byte{enc}, s.txIDs, nil, nil)
	var op mempool.Op
	if b.left.Load() > 0 {
		s.pool.Flush()
		ops := s.pool.WaitBatch(nil)
		op = ops[0]
		s.pool.Resolve(ops, nil)
	}
	return op, <-b.done
}

// TestSubmitBatchAllocs: admitting n encoded puts without ids, minting
// their ids and settling them costs a constant per call that does not
// grow with n: the submission's own (itself, its results, its channel,
// its settle), one slice of ids and lanes read in place, one id string,
// one buffer, one op slice, and the pool's drain and resolve. Nothing is
// allocated per transaction.
func TestSubmitBatchAllocs(t *testing.T) {
	value := bytes.Repeat([]byte("v"), 64)
	allocs := func(n int) float64 {
		s := newBareShard()
		txs := make([]Tx, n)
		for i := range txs {
			txs[i] = Tx{Kind: TxPut, Key: fmt.Sprintf("key-%08d", i), Value: value}
		}
		encs := encodeTxs(txs)
		return testing.AllocsPerRun(50, func() {
			b := s.submit(encs, s.txIDs, nil, nil)
			s.pool.Flush()
			s.pool.Resolve(s.pool.WaitBatch(nil), nil)
			if res := <-b.done; res.Err != nil {
				t.Fatal(res.Err)
			}
		})
	}
	a16, a64 := allocs(16), allocs(64)
	t.Logf("allocations per call: %.1f at n=16, %.1f at n=64", a16, a64)
	if a64 != a16 {
		t.Fatalf("%.1f allocations at n=16, %.1f at n=64: something is allocated per transaction", a16, a64)
	}
	if a64 > 12 {
		t.Fatalf("%.1f allocations per call, want <= 12", a64)
	}
}

// TestClaimsRaceMinting: a caller keeps claiming the id the shard minted
// last, or the one it will mint next, while others submit id-less
// batches. A claim of a minted id waits for the submission that minted it
// to admit it, and meets the minted op like any retry; a claim of an id
// not yet minted is refused. Either way every submission settles, every
// id is in the chain once, and no minted id carries the claimer's
// transaction (run under -race).
func TestClaimsRaceMinting(t *testing.T) {
	_, s := newShard(t, "race", nil)
	const minters, rounds, per = 3, 20, 8
	var wg sync.WaitGroup
	minted := make([][]string, minters)
	for m := 0; m < minters; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			txs := make([]Tx, per)
			for i := range txs {
				txs[i] = Tx{Kind: TxPut, Key: fmt.Sprintf("m%d-%d", m, i), Value: []byte("v")}
			}
			for r := 0; r < rounds; r++ {
				for _, res := range s.SubmitBatch(txs) {
					if res.Err != nil {
						t.Errorf("minted submission: %v", res.Err)
						return
					}
					minted[m] = append(minted[m], res.TxID)
				}
			}
		}(m)
	}
	accepted := make(map[string]bool)
	for r := 0; r < 2*rounds; r++ {
		id := fmt.Sprintf("%s%d", s.txIDs, s.seq.Load()+uint64(r%2))
		var res Result
		select {
		case res = <-s.SubmitAsync(Tx{ID: id, Kind: TxPut, Key: "claims", Value: []byte("v")}):
		case <-time.After(30 * time.Second):
			t.Fatalf("claim %s never settled", id)
		}
		switch {
		case res.Err == nil:
			accepted[id] = true
		case errors.Is(res.Err, ErrDuplicate), errors.Is(res.Err, ErrUnmintedID):
		default:
			t.Fatalf("claim %s: %v", id, res.Err)
		}
	}
	settled := make(chan struct{})
	go func() { wg.Wait(); close(settled) }()
	select {
	case <-settled:
	case <-time.After(30 * time.Second):
		t.Fatal("a minted submission never settled: a claim and a mint of one id met in the pool as two ops")
	}
	mine := make(map[string]bool)
	for _, ids := range minted {
		for _, id := range ids {
			if mine[id] {
				t.Fatalf("%s minted twice", id)
			}
			mine[id] = true
		}
	}
	want := len(mine)
	for id := range accepted {
		if !mine[id] {
			want++ // "-tx-0", claimed before any mint: a number never minted
		}
	}
	waitHeights(t, s)
	got := make(map[string]bool)
	for _, b := range s.Peers()[0].Blocks() {
		for _, tx := range b.Txs {
			if got[tx.ID] {
				t.Fatalf("%s applied twice", tx.ID)
			}
			got[tx.ID] = true
			if mine[tx.ID] && tx.Key == "claims" {
				t.Fatalf("%s was minted and acked, but the chain holds the claimer's transaction under it", tx.ID)
			}
		}
	}
	if len(got) != want {
		t.Fatalf("%d ids applied, want %d", len(got), want)
	}
}
