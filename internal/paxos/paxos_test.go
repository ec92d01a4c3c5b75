package paxos

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"prever/internal/netsim"
)

type cluster struct {
	net      *netsim.Network
	replicas []*Replica
	mu       sync.Mutex
	applied  map[string][]string // replica id -> applied values in order
}

func newCluster(t testing.TB, n int, cfg netsim.Config) *cluster {
	t.Helper()
	c := &cluster{net: netsim.New(cfg), applied: make(map[string][]string)}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%d", i)
	}
	for _, id := range ids {
		id := id
		r, err := NewReplica(c.net, id, ids, func(_ uint64, v []byte) {
			c.mu.Lock()
			c.applied[id] = append(c.applied[id], string(v))
			c.mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		c.replicas = append(c.replicas, r)
	}
	t.Cleanup(c.net.Close)
	return c
}

func (c *cluster) appliedAt(id string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.applied[id]...)
}

func TestBallotOrdering(t *testing.T) {
	a := Ballot{N: 1, ID: "r0"}
	b := Ballot{N: 2, ID: "r0"}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("ballot N ordering broken")
	}
	c := Ballot{N: 1, ID: "r1"}
	if !a.Less(c) {
		t.Fatal("ballot ID tiebreak broken")
	}
}

func TestNewReplicaRequiresSelfInPeers(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	if _, err := NewReplica(net, "x", []string{"a", "b"}, nil); err == nil {
		t.Fatal("replica without self in peers accepted")
	}
}

func TestSingleProposal(t *testing.T) {
	c := newCluster(t, 3, netsim.Config{})
	leader := c.replicas[0]
	if err := leader.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !leader.IsLeader() {
		t.Fatal("BecomeLeader did not set leadership")
	}
	slot, err := leader.Propose([]byte("v0"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if slot != 0 {
		t.Fatalf("first slot = %d", slot)
	}
	v, ok := chosen(leader, 0)
	if !ok || string(v) != "v0" {
		t.Fatalf("chosen(0) = %q, %v", v, ok)
	}
}

func TestProposeRequiresLeadership(t *testing.T) {
	c := newCluster(t, 3, netsim.Config{})
	if _, err := c.replicas[1].Propose([]byte("v"), time.Second); err == nil {
		t.Fatal("non-leader proposal accepted")
	}
}

func TestSequenceOfProposalsAppliedInOrderEverywhere(t *testing.T) {
	c := newCluster(t, 5, netsim.Config{Jitter: 200 * time.Microsecond, Seed: 1})
	leader := c.replicas[0]
	if err := leader.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := leader.Propose([]byte(fmt.Sprintf("v%d", i)), 2*time.Second); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
	}
	// All replicas should converge on the same applied sequence.
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range c.replicas {
		for time.Now().Before(deadline) && applied(r) < n {
			time.Sleep(time.Millisecond)
		}
		if applied(r) != n {
			t.Fatalf("replica %s applied %d/%d", r.ID(), applied(r), n)
		}
	}
	want := c.appliedAt("r0")
	for _, rep := range c.replicas[1:] {
		got := c.appliedAt(rep.ID())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replica %s diverges at %d: %q vs %q", rep.ID(), i, got[i], want[i])
			}
		}
	}
}

func TestProgressWithMinorityDown(t *testing.T) {
	c := newCluster(t, 5, netsim.Config{})
	leader := c.replicas[0]
	if err := leader.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Partition away two replicas (a minority).
	c.net.Partition([]string{"r3", "r4"})
	if _, err := leader.Propose([]byte("survives"), 2*time.Second); err != nil {
		t.Fatalf("proposal failed with minority down: %v", err)
	}
}

func TestNoProgressWithMajorityDown(t *testing.T) {
	c := newCluster(t, 5, netsim.Config{})
	leader := c.replicas[0]
	if err := leader.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.net.Partition([]string{"r2", "r3", "r4"})
	if _, err := leader.Propose([]byte("lost"), 300*time.Millisecond); err == nil {
		t.Fatal("proposal succeeded without a quorum")
	}
}

func TestLeaderFailover(t *testing.T) {
	c := newCluster(t, 5, netsim.Config{})
	old := c.replicas[0]
	if err := old.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := old.Propose([]byte(fmt.Sprintf("old-%d", i)), 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Old leader crashes (partitioned away).
	c.net.Partition([]string{"r0"})
	next := c.replicas[1]
	if err := next.BecomeLeader(2 * time.Second); err != nil {
		t.Fatalf("failover election failed: %v", err)
	}
	slot, err := next.Propose([]byte("new-era"), 2*time.Second)
	if err != nil {
		t.Fatalf("post-failover proposal failed: %v", err)
	}
	// The new proposal must land after the recovered prefix.
	if slot < 5 {
		t.Fatalf("new proposal reused slot %d despite 5 chosen entries", slot)
	}
	// The old committed values must survive on the new leader.
	for i := uint64(0); i < 5; i++ {
		v, ok := chosen(next, i)
		if !ok || string(v) != fmt.Sprintf("old-%d", i) {
			t.Fatalf("slot %d lost after failover: %q, %v", i, v, ok)
		}
	}
}

func TestDemotedLeaderStopsProposing(t *testing.T) {
	c := newCluster(t, 3, netsim.Config{})
	a, b := c.replicas[0], c.replicas[1]
	if err := a.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Give a's demotion (triggered by b's higher prepare) time to land.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && a.IsLeader() {
		time.Sleep(time.Millisecond)
	}
	if a.IsLeader() {
		t.Fatal("old leader still believes it leads after seeing a higher ballot")
	}
	if _, err := b.Propose([]byte("from-b"), 2*time.Second); err != nil {
		t.Fatalf("new leader cannot propose: %v", err)
	}
}

func TestLossyNetworkStillCommits(t *testing.T) {
	// 10% loss: the leader's quorum of 3/5 still forms with retries-free
	// Paxos because each proposal fans out to 4 peers.
	c := newCluster(t, 5, netsim.Config{DropRate: 0.1, Seed: 99})
	leader := c.replicas[0]
	if err := leader.BecomeLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	committed := 0
	for i := 0; i < 20; i++ {
		if _, err := leader.Propose([]byte(fmt.Sprintf("v%d", i)), time.Second); err == nil {
			committed++
		}
	}
	if committed < 10 {
		t.Fatalf("only %d/20 proposals committed under 10%% loss", committed)
	}
}

func BenchmarkPaxosThroughput3(b *testing.B) {
	benchPaxos(b, 3)
}

func BenchmarkPaxosThroughput5(b *testing.B) {
	benchPaxos(b, 5)
}

func benchPaxos(b *testing.B, n int) {
	c := newCluster(b, n, netsim.Config{})
	leader := c.replicas[0]
	if err := leader.BecomeLeader(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	val := []byte("benchmark-value-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := leader.Propose(val, 5*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBecomeLeaderTimesOutWithoutQuorum pins the election deadline after
// the time.After -> stoppable-timer refactor: with the promise quorum
// crashed the election must fail at the deadline instead of spinning.
func TestBecomeLeaderTimesOutWithoutQuorum(t *testing.T) {
	c := newCluster(t, 3, netsim.Config{})
	for _, r := range c.replicas[1:] {
		if err := c.net.Crash(r.ID()); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 250 * time.Millisecond
	start := time.Now()
	err := c.replicas[0].BecomeLeader(budget)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("BecomeLeader without a quorum = %v, want election timeout", err)
	}
	if since := time.Since(start); since < budget {
		t.Fatalf("BecomeLeader returned after %v, before its %v deadline", since, budget)
	}
}

// TestProposalWaitTimeoutDetachesWaiter: a timed-out Wait (stoppable
// timer since the timerleak fix) must also deregister its slot waiter so
// a learn arriving later finds nobody to wake instead of a stale entry.
func TestProposalWaitTimeoutDetachesWaiter(t *testing.T) {
	c := newCluster(t, 3, netsim.Config{})
	if err := c.replicas[0].BecomeLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.replicas[1:] {
		if err := c.net.Crash(r.ID()); err != nil {
			t.Fatal(err)
		}
	}
	p, err := c.replicas[0].ProposeAsync([]byte("stalled"))
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := p.Wait(200 * time.Millisecond); werr == nil || !strings.Contains(werr.Error(), "timed out") {
		t.Fatalf("Wait with crashed acceptors = %v, want timeout", werr)
	}
	r0 := c.replicas[0]
	r0.mu.Lock()
	_, still := r0.waiters[p.slot]
	r0.mu.Unlock()
	if still {
		t.Fatal("timed-out proposal left its slot waiter registered")
	}
}
