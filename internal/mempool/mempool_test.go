package mempool

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prever/internal/leaktest"
)

// --- Pool ----------------------------------------------------------------

// drainAll pulls every queued op without a batcher.
func drainAll(p *Pool) []Op {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drainLocked(1 << 30)
}

func TestPoolCapRejection(t *testing.T) {
	p := NewPool(Config{Cap: 2, BatchSize: 64})
	if err := p.Add(Op{ID: "1", Lane: "a"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(Op{ID: "2", Lane: "a"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(Op{ID: "3", Lane: "a"}, nil); !errors.Is(err, ErrFull) {
		t.Fatalf("add over cap: err = %v, want ErrFull", err)
	}
	// In-flight ops still count against the cap.
	if got := len(drainAll(p)); got != 2 {
		t.Fatalf("drained %d, want 2", got)
	}
	if err := p.Add(Op{ID: "4", Lane: "a"}, nil); !errors.Is(err, ErrFull) {
		t.Fatalf("add with 2 in flight: err = %v, want ErrFull", err)
	}
	// Resolution frees capacity.
	p.Resolve([]Op{{ID: "1"}, {ID: "2"}}, nil)
	if err := p.Add(Op{ID: "4", Lane: "a"}, nil); err != nil {
		t.Fatalf("add after resolve: %v", err)
	}
	s := p.Stats()
	if s.RejectedFull != 2 || s.Admitted != 3 {
		t.Fatalf("stats = %+v, want 2 rejections / 3 admissions", s)
	}
}

func TestPoolDrainOrderingPerLane(t *testing.T) {
	p := NewPool(Config{Cap: 100, BatchSize: 100})
	var want []string
	for producer := 0; producer < 5; producer++ {
		for i := 0; i < 6; i++ {
			id := fmt.Sprintf("p%d-%d", producer, i)
			op := Op{ID: id, Lane: fmt.Sprintf("producer-%d", producer)}
			if err := p.Add(op, nil); err != nil {
				t.Fatal(err)
			}
			want = append(want, id)
		}
	}
	got := drainAll(p)
	if len(got) != len(want) {
		t.Fatalf("drained %d ops, want %d", len(got), len(want))
	}
	// Per-lane FIFO: for each producer the drained subsequence matches
	// submission order.
	seen := map[string]int{}
	for _, op := range got {
		idx := seen[op.Lane]
		seen[op.Lane]++
		wantID := fmt.Sprintf("%s-%d", "p"+op.Lane[len("producer-"):], idx)
		if op.ID != wantID {
			t.Fatalf("lane %s position %d: got %s, want %s", op.Lane, idx, op.ID, wantID)
		}
	}
}

// TestPoolDuplicateSuppression: a pending id joins the pending op's acks
// whatever the application says; an id that is not pending is the
// application's to judge, and one it has executed is acked ErrDuplicate
// without being queued.
func TestPoolDuplicateSuppression(t *testing.T) {
	executed := map[string]bool{}
	asked := 0
	p := NewPool(Config{Cap: 10, BatchSize: 10, Executed: func(id string) bool {
		asked++
		return executed[id]
	}})
	var acks atomic.Int64
	ack := func(err error) {
		if err != nil {
			t.Errorf("ack error: %v", err)
		}
		acks.Add(1)
	}
	// Pending duplicate: attaches, does not requeue.
	if err := p.Add(Op{ID: "x", Lane: "a"}, ack); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(Op{ID: "x", Lane: "a"}, ack); err != nil {
		t.Fatal(err)
	}
	ops := drainAll(p)
	if len(ops) != 1 {
		t.Fatalf("duplicate was re-queued: drained %d ops", len(ops))
	}
	// In-flight duplicate: still attaches, even though the application
	// applies before the batch resolves.
	executed["x"] = true
	if err := p.Add(Op{ID: "x", Lane: "a"}, ack); err != nil {
		t.Fatal(err)
	}
	if asked != 1 {
		t.Fatalf("Executed asked %d times, want once (the first add; pending ids are the pool's own)", asked)
	}
	p.Resolve(ops, nil)
	if got := acks.Load(); got != 3 {
		t.Fatalf("acks = %d, want 3 (fan-out to every duplicate submitter)", got)
	}
	// Executed duplicate: acked immediately with ErrDuplicate ("already
	// committed"), never re-queued.
	var dupErr error
	if err := p.Add(Op{ID: "x", Lane: "a"}, func(err error) { dupErr = err; acks.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if got := acks.Load(); got != 4 {
		t.Fatalf("executed duplicate not acked immediately (acks = %d)", got)
	}
	if !errors.Is(dupErr, ErrDuplicate) {
		t.Fatalf("executed duplicate acked with %v, want ErrDuplicate", dupErr)
	}
	if got := len(drainAll(p)); got != 0 {
		t.Fatalf("executed duplicate re-queued: drained %d", got)
	}
	s := p.Stats()
	if s.DupPending != 2 || s.DupExecuted != 1 || s.Admitted != 1 {
		t.Fatalf("stats = %+v, want DupPending 2 / DupExecuted 1 / Admitted 1", s)
	}
}

// TestPoolExecutedBeforeThePoolExisted: the pool holds no memory of its
// own, so an id the application executed before this pool was built (a
// restart) is a duplicate on first sight.
func TestPoolExecutedBeforeThePoolExisted(t *testing.T) {
	p := NewPool(Config{Cap: 10, BatchSize: 10, Executed: func(id string) bool { return id == "old" }})
	var got error
	if err := p.Add(Op{ID: "old", Lane: "a"}, func(err error) { got = err }); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, ErrDuplicate) {
		t.Fatalf("acked with %v, want ErrDuplicate", got)
	}
	if err := p.Add(Op{ID: "new", Lane: "a"}, nil); err != nil {
		t.Fatal(err)
	}
	if ops := drainAll(p); len(ops) != 1 || ops[0].ID != "new" {
		t.Fatalf("drained %v, want the fresh op only", ops)
	}
	if s := p.Stats(); s.DupExecuted != 1 || s.Admitted != 1 {
		t.Fatalf("stats = %+v, want DupExecuted 1 / Admitted 1", s)
	}
}

// TestPoolWithoutApplicationRemembersNothing: with no Executed hook a
// resolved id is admitted and proposed again; the applier dedups.
func TestPoolWithoutApplicationRemembersNothing(t *testing.T) {
	p := NewPool(Config{Cap: 10, BatchSize: 10})
	for round := 0; round < 2; round++ {
		var got error = errors.New("not acked")
		if err := p.Add(Op{ID: "x", Lane: "a"}, func(err error) { got = err }); err != nil {
			t.Fatal(err)
		}
		ops := drainAll(p)
		if len(ops) != 1 {
			t.Fatalf("round %d: drained %d ops, want 1", round, len(ops))
		}
		p.Resolve(ops, nil)
		if got != nil {
			t.Fatalf("round %d: acked with %v", round, got)
		}
	}
	if s := p.Stats(); s.Admitted != 2 || s.DupExecuted != 0 {
		t.Fatalf("stats = %+v, want Admitted 2 / DupExecuted 0", s)
	}
}

// TestPoolRetainsNothingPerResolvedOp: an op that resolved leaves nothing
// behind in the pool — no map slot, no id — so the pool's heap does not
// grow with history. Run by `make heap-smoke`.
func TestPoolRetainsNothingPerResolvedOp(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are not the pool's")
	}
	const n, perBatch = 100_000, 64
	p := NewPool(Config{Cap: 4096, BatchSize: perBatch, Executed: func(string) bool { return false }})
	next := 0
	batch := func() {
		for i := 0; i < perBatch; i++ {
			next++
			id := fmt.Sprintf("s0-a1b2c3-tx-%d", next)
			if err := p.Add(Op{ID: id, Lane: id, Data: []byte(id)}, nil); err != nil {
				t.Fatal(err)
			}
		}
		p.Resolve(drainAll(p), nil)
	}
	for next < 10*perBatch { // the lanes and the states map have grown
		batch()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for from := next; next-from < n; {
		batch()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytesGrown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	objsGrown := int64(after.HeapObjects) - int64(before.HeapObjects)
	t.Logf("%d resolved ops: heap %+d bytes, %+d objects", n, bytesGrown, objsGrown)
	if bytesGrown >= 8*n {
		t.Errorf("heap grew %d bytes over %d resolved ops, limit %d (8 per op)", bytesGrown, n, 8*n)
	}
	if objsGrown >= n/100 {
		t.Errorf("heap grew %d objects over %d resolved ops, limit %d (0.01 per op)", objsGrown, n, n/100)
	}
	runtime.KeepAlive(p)
}

// Flush cuts the linger short only in front of an idle pipeline, and only
// for what was queued when it was called.
func TestFlushDispatchesWhenNothingIsInFlight(t *testing.T) {
	p := NewPool(Config{Cap: 100, BatchSize: 8, FlushInterval: time.Hour})
	stop := make(chan struct{})
	batches := make(chan []Op)
	go func() {
		defer close(batches)
		for {
			ops := p.WaitBatch(stop)
			if ops == nil {
				return
			}
			batches <- ops
		}
	}()
	add := func(ids ...string) {
		t.Helper()
		for _, id := range ids {
			if err := p.Add(Op{ID: id, Lane: id}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	next := func(want int) []Op {
		t.Helper()
		select {
		case ops := <-batches:
			if len(ops) != want {
				t.Fatalf("drained %d ops, want %d", len(ops), want)
			}
			return ops
		case <-time.After(5 * time.Second):
			t.Fatalf("no batch of %d: the pool lingered", want)
			return nil
		}
	}
	lingers := func(why string) {
		t.Helper()
		select {
		case ops := <-batches:
			t.Fatalf("%s: drained %d ops early", why, len(ops))
		case <-time.After(20 * time.Millisecond):
		}
	}

	add("a", "b", "c")
	p.Flush()
	first := next(3)

	add("d", "e")
	p.Flush()
	lingers("a batch is in flight")
	p.Resolve(first, nil)
	p.Resolve(next(2), nil)

	p.Flush() // nothing queued: must not carry over to the next op
	add("f")
	lingers("no Flush since the op was queued")
	close(stop)
	for range batches {
	}
}

func TestPoolFailedOpMayRetry(t *testing.T) {
	p := NewPool(Config{Cap: 10, BatchSize: 10})
	var failed atomic.Int64
	if err := p.Add(Op{ID: "x", Lane: "a"}, func(err error) {
		if err != nil {
			failed.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	ops := drainAll(p)
	p.Resolve(ops, errors.New("leader died"))
	if failed.Load() != 1 {
		t.Fatal("failure not delivered")
	}
	// A failed op left the pool: the retry is admitted and proposed anew.
	if err := p.Add(Op{ID: "x", Lane: "a"}, nil); err != nil {
		t.Fatalf("retry after failure rejected: %v", err)
	}
	if got := len(drainAll(p)); got != 1 {
		t.Fatalf("retry not queued (drained %d)", got)
	}
}

func TestPoolCloseFailsQueuedOps(t *testing.T) {
	defer leaktest.Check(t)()
	p := NewPool(Config{Cap: 10, BatchSize: 10})
	var got atomic.Value
	if err := p.Add(Op{ID: "x", Lane: "a"}, func(err error) { got.Store(err) }); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err, _ := got.Load().(error); !errors.Is(err, ErrClosed) {
		t.Fatalf("queued op resolved with %v, want ErrClosed", err)
	}
	if err := p.Add(Op{ID: "y", Lane: "a"}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("add after close: %v, want ErrClosed", err)
	}
}

// --- Batcher -------------------------------------------------------------

// stubProposer records batches and resolves them when released.
type stubProposer struct {
	mu       sync.Mutex
	batches  [][][]byte
	inflight atomic.Int64
	maxInFl  atomic.Int64
	release  chan error
}

func newStubProposer(buffered int) *stubProposer {
	return &stubProposer{release: make(chan error, buffered)}
}

func (s *stubProposer) propose(ops [][]byte) func() error {
	s.mu.Lock()
	cp := make([][]byte, len(ops))
	copy(cp, ops)
	s.batches = append(s.batches, cp)
	s.mu.Unlock()
	n := s.inflight.Add(1)
	for {
		m := s.maxInFl.Load()
		if n <= m || s.maxInFl.CompareAndSwap(m, n) {
			break
		}
	}
	return func() error {
		defer s.inflight.Add(-1)
		return <-s.release
	}
}

func (s *stubProposer) batchCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.batches)
}

func TestBatcherBatchesAndPipelines(t *testing.T) {
	defer leaktest.Check(t)()
	p := NewPool(Config{Cap: 1000, BatchSize: 8, FlushInterval: time.Millisecond, MaxInFlight: 3})
	prop := newStubProposer(1000)
	b := NewBatcher(p, prop.propose)
	defer b.Stop()

	const ops = 64
	var wg sync.WaitGroup
	wg.Add(ops)
	for i := 0; i < ops; i++ {
		err := p.Add(Op{ID: fmt.Sprintf("op-%d", i), Lane: fmt.Sprintf("l%d", i%4)}, func(err error) {
			if err != nil {
				t.Errorf("ack: %v", err)
			}
			wg.Done()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ops; i++ {
		prop.release <- nil
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("acks never arrived")
	}
	st := b.Stats()
	if st.Ops != ops {
		t.Fatalf("batcher proposed %d ops, want %d", st.Ops, ops)
	}
	if st.Batches >= ops {
		t.Fatalf("no batching happened: %d batches for %d ops", st.Batches, ops)
	}
	if st.MaxSize > 8 {
		t.Fatalf("batch overflow: max size %d > 8", st.MaxSize)
	}
}

func TestBatcherRespectsMaxInFlight(t *testing.T) {
	defer leaktest.Check(t)()
	p := NewPool(Config{Cap: 1000, BatchSize: 1, FlushInterval: 0, MaxInFlight: 2})
	prop := newStubProposer(0) // unbuffered: proposals block until released
	b := NewBatcher(p, prop.propose)

	const ops = 10
	for i := 0; i < ops; i++ {
		if err := p.Add(Op{ID: fmt.Sprintf("op-%d", i), Lane: "l"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Let the dispatch loop hit the in-flight wall, then drain.
	deadline := time.After(5 * time.Second)
	for released := 0; released < ops; released++ {
		select {
		case prop.release <- nil:
		case <-deadline:
			t.Fatalf("batcher wedged after %d releases", released)
		}
	}
	b.Stop()
	if got := prop.maxInFl.Load(); got > 2 {
		t.Fatalf("max concurrent in-flight = %d, want <= 2", got)
	}
	if prop.batchCount() != ops {
		t.Fatalf("proposed %d batches, want %d", prop.batchCount(), ops)
	}
}

// TestStoppingBatcherStartsNoInstance: a batch drained by a batcher that
// is already stopping fails with ErrClosed instead of being proposed, even
// with a slot free — a select over stop and the slot alone would propose
// it about every other time.
func TestStoppingBatcherStartsNoInstance(t *testing.T) {
	defer leaktest.Check(t)()
	for i := 0; i < 100; i++ {
		p := NewPool(Config{Cap: 10, BatchSize: 1, MaxInFlight: 2})
		entered, resume := make(chan struct{}), make(chan struct{})
		var proposals atomic.Int64
		b := NewBatcher(p, func([][]byte) func() error {
			if proposals.Add(1) == 1 {
				close(entered)
				<-resume // hold the dispatch loop inside its first proposal
			}
			return func() error { return nil }
		})
		if err := p.Add(Op{ID: "first"}, nil); err != nil {
			t.Fatal(err)
		}
		<-entered
		second := make(chan error, 1)
		if err := p.Add(Op{ID: "second"}, func(err error) { second <- err }); err != nil {
			t.Fatal(err)
		}
		b.stopOnce.Do(func() { close(b.stop) })
		close(resume)
		b.Stop()
		if err := <-second; !errors.Is(err, ErrClosed) {
			t.Fatalf("iteration %d: op drained after stop resolved with %v, want ErrClosed", i, err)
		}
		if n := proposals.Load(); n != 1 {
			t.Fatalf("iteration %d: %d instances started, want 1", i, n)
		}
	}
}

func TestBatcherDispatchOrderPerLane(t *testing.T) {
	defer leaktest.Check(t)()
	p := NewPool(Config{Cap: 1000, BatchSize: 4, FlushInterval: time.Millisecond, MaxInFlight: 4})
	prop := newStubProposer(1000)
	b := NewBatcher(p, prop.propose)
	defer b.Stop()
	const ops = 40
	var wg sync.WaitGroup
	wg.Add(ops)
	for i := 0; i < ops; i++ {
		lane := fmt.Sprintf("lane-%d", i%2)
		payload := fmt.Sprintf("%s/%d", lane, i/2)
		if err := p.Add(Op{ID: payload, Lane: lane, Data: []byte(payload)}, func(error) { wg.Done() }); err != nil {
			t.Fatal(err)
		}
		prop.release <- nil
	}
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("acks never arrived")
	}
	b.Stop()
	// Flatten batches in dispatch order; each lane's payloads must appear
	// in submission order.
	prop.mu.Lock()
	defer prop.mu.Unlock()
	next := map[int]int{}
	total := 0
	for _, batch := range prop.batches {
		for _, data := range batch {
			var laneN, idx int
			if _, err := fmt.Sscanf(string(data), "lane-%d/%d", &laneN, &idx); err != nil {
				t.Fatalf("bad payload %q: %v", data, err)
			}
			if idx != next[laneN] {
				t.Fatalf("lane %d proposed out of order: got %d, want %d", laneN, idx, next[laneN])
			}
			next[laneN]++
			total++
		}
	}
	if total != ops {
		t.Fatalf("proposed %d ops, want %d", total, ops)
	}
}
