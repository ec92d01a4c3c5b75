package paxos

import (
	"fmt"
	"testing"
	"time"

	"prever/internal/mempool"
	"prever/internal/netsim"
	"prever/internal/wire/wiretest"
)

func TestProposeAsyncPipelinesInOrder(t *testing.T) {
	c := newCluster(t, 3, netsim.Config{Jitter: 200 * time.Microsecond, Seed: 7})
	leader := c.replicas[0]
	if err := leader.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Start several proposals before waiting on any: eager slot assignment
	// must give them consecutive slots in start order.
	const n = 8
	pending := make([]*PendingProposal, n)
	for i := range pending {
		p, err := leader.ProposeAsync([]byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		pending[i] = p
	}
	for i, p := range pending {
		slot, err := p.Wait(2 * time.Second)
		if err != nil {
			t.Fatalf("proposal %d: %v", i, err)
		}
		if slot != uint64(i) {
			t.Fatalf("proposal %d committed into slot %d", i, slot)
		}
		if slot != p.Slot() {
			t.Fatalf("Wait slot %d != Slot() %d", slot, p.Slot())
		}
	}
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("v%d", i)
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, r := range c.replicas {
		for {
			got := c.appliedAt(r.ID())
			if len(got) >= n {
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s applied[%d] = %q, want %q", r.ID(), i, got[i], want[i])
					}
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s applied only %d/%d", r.ID(), len(got), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestClientProposeBatchCommitsOneSlot(t *testing.T) {
	c := newCluster(t, 3, netsim.Config{})
	client, err := NewClient(c.net, c.replicas, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ops := [][]byte{[]byte("x"), []byte("y"), []byte("z")}
	slot, err := client.ProposeBatch(ops, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := c.replicas[0].Chosen(slot)
	if !ok {
		t.Fatalf("slot %d not chosen on r0", slot)
	}
	run, ok := mempool.DecodeBatch(v)
	got := wiretest.Split(run)
	if !ok || len(got) != 3 {
		t.Fatalf("chosen value did not decode as 3-op batch (ok=%v len=%d)", ok, len(got))
	}
	for i := range ops {
		if string(got[i]) != string(ops[i]) {
			t.Fatalf("batch op %d = %q, want %q", i, got[i], ops[i])
		}
	}
}

func TestClientStartWaitFallsBackOnLeaderCrash(t *testing.T) {
	c := newCluster(t, 3, netsim.Config{})
	client, err := NewClient(c.net, c.replicas, ClientOptions{TryTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.replicas[0].BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Eager proposal lands on r0; crashing r0 before the accept round can
	// complete forces Wait through the failover loop.
	c.net.Crash("r0")
	p := client.StartBatch([][]byte{[]byte("survivor")})
	slot, err := p.Wait(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The value must be committed on a surviving replica.
	var committed bool
	for _, r := range c.replicas[1:] {
		if v, ok := r.Chosen(slot); ok {
			run, isBatch := mempool.DecodeBatch(v)
			if ops := wiretest.Split(run); isBatch && len(ops) == 1 && string(ops[0]) == "survivor" {
				committed = true
			}
		}
	}
	if !committed {
		t.Fatalf("batch not committed on survivors at slot %d", slot)
	}
}

func TestClientStartPipelinedBatchesKeepOrder(t *testing.T) {
	c := newCluster(t, 3, netsim.Config{Jitter: 100 * time.Microsecond, Seed: 3})
	client, err := NewClient(c.net, c.replicas, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the Batcher's dispatch pattern: Start batches in order, then
	// wait on all of them. Slots must come back in start order.
	const n = 6
	pend := make([]*Pending, n)
	for i := range pend {
		pend[i] = client.StartBatch([][]byte{[]byte(fmt.Sprintf("b%d", i))})
	}
	var prev uint64
	for i, p := range pend {
		slot, err := p.Wait(5 * time.Second)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if i > 0 && slot <= prev {
			t.Fatalf("batch %d slot %d <= batch %d slot %d", i, slot, i-1, prev)
		}
		prev = slot
	}
}
