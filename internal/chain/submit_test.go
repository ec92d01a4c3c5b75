package chain

import (
	"errors"
	"fmt"
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
	if st.MeanCommitLatency() <= 0 {
		t.Fatal("mean commit latency not recorded")
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
	st := c.Stats()
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
