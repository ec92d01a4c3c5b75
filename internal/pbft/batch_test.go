package pbft

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"prever/internal/mempool"
	"prever/internal/netsim"
)

func TestSubmitAsyncDuplicateGetsClosedChannel(t *testing.T) {
	c := newCluster(t, 1, Options{}, netsim.Config{})
	primary := c.replicas[0]
	if err := primary.Submit("client", 1, []byte("op"), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	done := primary.SubmitAsync("client", 1, []byte("op"))
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("duplicate of executed request did not resolve immediately")
	}
	if primary.Executed() != 1 {
		t.Fatalf("duplicate re-executed: %d instances", primary.Executed())
	}
}

// TestClientSubmitBatchOneInstanceExactlyOnce: N ops through
// Client.SubmitBatch are ordered by one three-phase instance on every
// replica, come back out of the framing in submission order, and a
// client retry of the same request does not execute them again.
func TestClientSubmitBatchOneInstanceExactlyOnce(t *testing.T) {
	c := newCluster(t, 1, Options{}, netsim.Config{Jitter: 100 * time.Microsecond, Seed: 5})
	client, err := NewClient(c.net, c.replicas, "batcher", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	ops := make([][]byte, n)
	for i := range ops {
		ops[i] = []byte(fmt.Sprintf("op-%d", i))
	}
	if err := client.SubmitBatch(ops, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// A retry after a lost ack reuses the client sequence number.
	if err := client.submit(client.seq.Load(), mempool.EncodeBatch(ops), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range c.replicas {
		for time.Now().Before(deadline) && r.Executed() < 1 {
			time.Sleep(time.Millisecond)
		}
	}
	// Give any stray re-execution time to land.
	time.Sleep(50 * time.Millisecond)
	for _, r := range c.replicas {
		if got := r.Executed(); got != 1 {
			t.Fatalf("%s ran %d instances for one batch, want 1", r.ID(), got)
		}
		// The cluster applier records raw requests; decode the batch like
		// a real applier would.
		got := c.appliedAt(r.ID())
		if len(got) != 1 {
			t.Fatalf("%s applied %d requests, want 1 batch request", r.ID(), len(got))
		}
		decoded, ok := mempool.DecodeBatch([]byte(got[0]))
		if !ok || len(decoded) != n {
			t.Fatalf("%s: applied request did not decode as a %d-op batch (ok=%v, %d ops)", r.ID(), n, ok, len(decoded))
		}
		for i := range ops {
			if string(decoded[i]) != string(ops[i]) {
				t.Fatalf("%s: batch op %d = %q, want %q", r.ID(), i, decoded[i], ops[i])
			}
		}
	}
}

func TestClientStartPipelinedKeepsOrder(t *testing.T) {
	c := newCluster(t, 1, Options{}, netsim.Config{Jitter: 100 * time.Microsecond, Seed: 9})
	client, err := NewClient(c.net, c.replicas, "pipeliner", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the Batcher's dispatch pattern: Start batches in order, wait
	// on all. Every replica must apply them in start order.
	const n = 8
	pend := make([]*Pending, n)
	for i := range pend {
		pend[i] = client.StartBatch([][]byte{[]byte(fmt.Sprintf("pb-%d", i))})
	}
	for i, p := range pend {
		if err := p.Wait(5 * time.Second); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range c.replicas {
		// Poll what is asserted: a replica advances Executed before its
		// applier has run, outside the lock.
		for time.Now().Before(deadline) && len(c.appliedAt(r.ID())) < n {
			time.Sleep(time.Millisecond)
		}
		got := c.appliedAt(r.ID())
		if len(got) != n {
			t.Fatalf("%s applied %d requests, want %d", r.ID(), len(got), n)
		}
		for i, raw := range got {
			ops, ok := mempool.DecodeBatch([]byte(raw))
			if !ok || len(ops) != 1 {
				t.Fatalf("%s request %d not a 1-op batch", r.ID(), i)
			}
			if want := fmt.Sprintf("pb-%d", i); string(ops[0]) != want {
				t.Fatalf("%s applied[%d] = %q, want %q", r.ID(), i, ops[0], want)
			}
		}
	}
}

func TestPendingWaitRetriesSameSeqAcrossPrimaryCrash(t *testing.T) {
	c := newCluster(t, 1, Options{ViewTimeout: 150 * time.Millisecond}, netsim.Config{})
	client, err := NewClient(c.net, c.replicas, "crashy", ClientOptions{TryTimeout: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// The eager attempt lands on the primary; crash it before it can run
	// the three-phase protocol, forcing Wait through the failover loop
	// with the same client sequence number.
	c.net.Crash("p0")
	p := client.StartBatch([][]byte{[]byte("survive-crash")})
	if err := p.Wait(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Survivors execute the batch exactly once.
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range c.replicas[1:] {
		for time.Now().Before(deadline) && r.Executed() < 1 {
			time.Sleep(time.Millisecond)
		}
		if got := r.Executed(); got != 1 {
			t.Fatalf("%s executed %d instances, want 1", r.ID(), got)
		}
	}
}

// TestPendingWaitBudgetExhausted: Wait's per-try timer is clamped to the
// remaining budget, so on a cluster that cannot execute it must surface
// budget exhaustion right after the budget elapses. The pre-refactor
// time.After here allocated a fresh unstoppable timer per retry.
func TestPendingWaitBudgetExhausted(t *testing.T) {
	c := newCluster(t, 1, Options{}, netsim.Config{})
	for _, r := range c.replicas[1:] {
		if err := c.net.Crash(r.ID()); err != nil {
			t.Fatal(err)
		}
	}
	client, err := NewClient(c.net, c.replicas, "budget", ClientOptions{TryTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	p := client.Start([]byte("never-commits"))
	const budget = 200 * time.Millisecond
	start := time.Now()
	werr := p.Wait(budget)
	if werr == nil || !strings.Contains(werr.Error(), "budget exhausted") {
		t.Fatalf("Wait on a dead cluster = %v, want budget exhaustion", werr)
	}
	if since := time.Since(start); since < budget {
		t.Fatalf("Wait returned after %v, before its %v budget", since, budget)
	}
}
