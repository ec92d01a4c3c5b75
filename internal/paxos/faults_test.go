package paxos

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prever/internal/netsim"
)

// orderChecker is an Applier that verifies the documented contract: every
// slot applied in order, exactly once.
type orderChecker struct {
	mu     sync.Mutex
	next   uint64
	values []string
	bad    []string
}

func (o *orderChecker) apply(slot uint64, value []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if slot != o.next {
		o.bad = append(o.bad, fmt.Sprintf("applied slot %d, expected %d", slot, o.next))
		return
	}
	o.next++
	o.values = append(o.values, string(value))
}

func (o *orderChecker) violations() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.bad...)
}

func (o *orderChecker) applied() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.values...)
}

// TestConcurrentProposeAppliesInOrder is the regression test for the
// apply-ordering bug: onLearn released the replica mutex before invoking
// the Applier, and onLearn is reachable from both the netsim handler
// goroutine and the proposer goroutine, so two goroutines could interleave
// their contiguous-apply batches and call the Applier out of slot order.
func TestConcurrentProposeAppliesInOrder(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	ids := []string{"r0", "r1", "r2"}
	checkers := make(map[string]*orderChecker)
	var replicas []*Replica
	for _, id := range ids {
		oc := &orderChecker{}
		checkers[id] = oc
		r, err := NewReplica(net, id, ids, oc.apply)
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
	}
	leader := replicas[0]
	if err := leader.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := leader.Propose([]byte(fmt.Sprintf("w%d-%d", w, i)), 5*time.Second); err != nil {
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d proposals failed", n)
	}
	const total = workers * perWorker
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range replicas {
		for time.Now().Before(deadline) && applied(r) < total {
			time.Sleep(time.Millisecond)
		}
	}
	for id, oc := range checkers {
		if v := oc.violations(); len(v) > 0 {
			t.Fatalf("replica %s applied out of order: %v", id, v[:min(len(v), 5)])
		}
		if got := len(oc.applied()); got != total {
			t.Fatalf("replica %s applied %d/%d", id, got, total)
		}
	}
	// All replicas applied the identical sequence.
	want := checkers["r0"].applied()
	for _, id := range []string{"r1", "r2"} {
		got := checkers[id].applied()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replica %s diverges at slot %d: %q vs %q", id, i, got[i], want[i])
			}
		}
	}
}

// TestProposeReturnsErrSlotLost is the regression test for the
// wrong-value-ack bug: Propose used to wake its waiter whenever ANY value
// was chosen for the slot, so after a leader change re-proposed a
// different value the original caller got a nil error for a value that
// was never committed.
func TestProposeReturnsErrSlotLost(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	ids := []string{"r0", "r1", "r2"}
	var replicas []*Replica
	for _, id := range ids {
		r, err := NewReplica(net, id, ids, nil)
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
	}
	a, b := replicas[0], replicas[1]
	if err := a.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Propose([]byte("base"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Everyone learns slot 0 before the partition.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && applied(b) < 1 {
		time.Sleep(time.Millisecond)
	}
	// The leader is cut off; its next proposal can only self-accept.
	net.Partition([]string{"r0"})
	errCh := make(chan error, 1)
	go func() {
		_, err := a.Propose([]byte("lost-value"), 10*time.Second)
		errCh <- err
	}()
	// Wait until the doomed proposal has claimed slot 1 locally.
	waitSlot := func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		_, ok := a.accepted[1]
		return ok
	}
	for time.Now().Before(deadline.Add(2*time.Second)) && !waitSlot() {
		time.Sleep(time.Millisecond)
	}
	if !waitSlot() {
		t.Fatal("doomed proposal never claimed slot 1")
	}
	// b takes over and commits a different value into slot 1.
	if err := b.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Propose([]byte("winner"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if v, ok := chosen(b, 1); !ok || string(v) != "winner" {
		t.Fatalf("slot 1 on b = %q, %v", v, ok)
	}
	// Heal; the old leader pulls the chosen log and must report the loss.
	net.Heal()
	a.Sync()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrSlotLost) {
			t.Fatalf("Propose returned %v, want ErrSlotLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("doomed Propose never returned")
	}
	if v, ok := chosen(a, 1); !ok || string(v) != "winner" {
		t.Fatalf("slot 1 on a = %q, %v after sync", v, ok)
	}
}

func TestRestartCatchesUpViaLearnSync(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	ids := []string{"r0", "r1", "r2"}
	checkers := make(map[string]*orderChecker)
	var replicas []*Replica
	for _, id := range ids {
		oc := &orderChecker{}
		checkers[id] = oc
		r, err := NewReplica(net, id, ids, oc.apply)
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
	}
	leader := replicas[0]
	if err := leader.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := leader.Propose([]byte(fmt.Sprintf("pre-%d", i)), 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	victim := replicas[2]
	if err := victim.Crash(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := leader.Propose([]byte(fmt.Sprintf("mid-%d", i)), 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := victim.Restart(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && applied(victim) < 10 {
		time.Sleep(time.Millisecond)
	}
	if applied(victim) != 10 {
		t.Fatalf("restarted replica applied %d/10", applied(victim))
	}
	want := checkers["r0"].applied()
	got := checkers["r2"].applied()
	if len(got) != len(want) {
		t.Fatalf("restarted replica applied %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restarted replica diverges at %d: %q vs %q", i, got[i], want[i])
		}
	}
	if v := checkers["r2"].violations(); len(v) > 0 {
		t.Fatalf("restarted replica broke apply contract: %v", v)
	}
}

func TestClientFailsOverOnLeaderCrash(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	ids := []string{"r0", "r1", "r2", "r3", "r4"}
	var replicas []*Replica
	for _, id := range ids {
		r, err := NewReplica(net, id, ids, nil)
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
	}
	client, err := NewClient(net, replicas, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := client.Propose([]byte(fmt.Sprintf("pre-%d", i)), 5*time.Second); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
	}
	// Kill whoever leads now; the client must elect a survivor and retry.
	var crashed *Replica
	for _, r := range replicas {
		if r.IsLeader() {
			crashed = r
			break
		}
	}
	if crashed == nil {
		t.Fatal("no leader after successful proposals")
	}
	if err := crashed.Crash(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := client.Propose([]byte(fmt.Sprintf("post-%d", i)), 10*time.Second); err != nil {
			t.Fatalf("post-crash propose %d: %v", i, err)
		}
	}
	// Every acked value is chosen somewhere in a survivor's log.
	var surv *Replica
	for _, r := range replicas {
		if r != crashed {
			surv = r
			break
		}
	}
	found := map[string]bool{}
	for slot := uint64(0); slot < 32; slot++ {
		if v, ok := chosen(surv, slot); ok {
			found[string(v)] = true
		}
	}
	for i := 0; i < 3; i++ {
		for _, pfx := range []string{"pre", "post"} {
			v := fmt.Sprintf("%s-%d", pfx, i)
			if !found[v] {
				t.Fatalf("acked value %q missing from survivor log", v)
			}
		}
	}
}
