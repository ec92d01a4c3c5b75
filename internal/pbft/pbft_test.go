package pbft

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
	applied  map[string][]string
}

func newCluster(t testing.TB, f int, opts Options, cfg netsim.Config) *cluster {
	t.Helper()
	n := 3*f + 1
	c := &cluster{net: netsim.New(cfg), applied: make(map[string][]string)}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("p%d", i)
	}
	for _, id := range ids {
		id := id
		r, err := NewReplica(c.net, id, ids, f, func(_ uint64, batch []Request) {
			c.mu.Lock()
			for _, req := range batch {
				c.applied[id] = append(c.applied[id], string(req.Op))
			}
			c.mu.Unlock()
		}, opts)
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

func TestReplicaConstruction(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	ids := []string{"a", "b", "c", "d"}
	if _, err := NewReplica(net, "zzz", ids, 1, nil, Options{}); err == nil {
		t.Fatal("id outside replica list accepted")
	}
	if _, err := NewReplica(net, "a", ids[:3], 1, nil, Options{}); err == nil {
		t.Fatal("n < 3f+1 accepted")
	}
}

func TestDigestIsOrderAndContentSensitive(t *testing.T) {
	a := Request{Client: "c", Seq: 1, Op: []byte("x")}
	b := Request{Client: "c", Seq: 2, Op: []byte("y")}
	if digestOf([]Request{a, b}) == digestOf([]Request{b, a}) {
		t.Fatal("digest ignores order")
	}
	if digestOf([]Request{a}) == digestOf([]Request{b}) {
		t.Fatal("digest ignores content")
	}
}

func TestSingleRequestCommits(t *testing.T) {
	c := newCluster(t, 1, Options{}, netsim.Config{})
	primary := c.replicas[0]
	if !primary.IsPrimary() {
		t.Fatal("p0 should be primary of view 0")
	}
	if err := primary.Submit("client", 1, []byte("op-1"), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if primary.Executed() != 1 {
		t.Fatalf("primary executed %d", primary.Executed())
	}
}

func TestAllReplicasExecuteSameOrder(t *testing.T) {
	c := newCluster(t, 1, Options{}, netsim.Config{Jitter: 100 * time.Microsecond, Seed: 3})
	primary := c.replicas[0]
	const n = 15
	for i := 0; i < n; i++ {
		if err := primary.Submit("client", uint64(i), []byte(fmt.Sprintf("op-%d", i)), 3*time.Second); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range c.replicas {
		for time.Now().Before(deadline) && r.Executed() < n {
			time.Sleep(time.Millisecond)
		}
		if r.Executed() < n {
			t.Fatalf("replica %s executed %d/%d", r.ID(), r.Executed(), n)
		}
	}
	want := c.appliedAt("p0")
	for _, rep := range c.replicas[1:] {
		got := c.appliedAt(rep.ID())
		if len(got) != len(want) {
			t.Fatalf("replica %s applied %d ops, want %d", rep.ID(), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replica %s diverges at %d: %q vs %q", rep.ID(), i, got[i], want[i])
			}
		}
	}
}

func TestBackupForwardsToPrimary(t *testing.T) {
	c := newCluster(t, 1, Options{ViewTimeout: 10 * time.Second}, netsim.Config{})
	backup := c.replicas[2]
	if backup.IsPrimary() {
		t.Fatal("p2 should not be primary")
	}
	if err := backup.Submit("client", 1, []byte("via-backup"), 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateRequestExecutesOnce(t *testing.T) {
	c := newCluster(t, 1, Options{}, netsim.Config{})
	primary := c.replicas[0]
	for i := 0; i < 3; i++ {
		if err := primary.Submit("client", 7, []byte("same-op"), 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Give any stray re-executions time to land.
	time.Sleep(50 * time.Millisecond)
	if got := c.appliedAt("p0"); len(got) != 1 {
		t.Fatalf("applied %d times, want 1: %v", len(got), got)
	}
}

func TestViewChangeOnDeadPrimary(t *testing.T) {
	c := newCluster(t, 1, Options{ViewTimeout: 200 * time.Millisecond}, netsim.Config{})
	// Kill the primary.
	c.net.Partition([]string{"p0"})
	backup := c.replicas[1]
	// First submit times out but triggers a view change; retry succeeds
	// under the new primary (p1 = view 1 primary, which is the backup we
	// submit through).
	_ = backup.Submit("client", 1, []byte("op"), 500*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && backup.View() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if backup.View() == 0 {
		t.Fatal("view change did not happen")
	}
	if err := backup.Submit("client", 2, []byte("op-after-vc"), 3*time.Second); err != nil {
		t.Fatalf("submit after view change: %v", err)
	}
	if got := c.appliedAt("p1"); len(got) == 0 {
		t.Fatal("nothing applied after view change")
	}
}

func TestViewChangePreservesExecutedState(t *testing.T) {
	c := newCluster(t, 1, Options{ViewTimeout: 200 * time.Millisecond}, netsim.Config{})
	primary := c.replicas[0]
	for i := 0; i < 5; i++ {
		if err := primary.Submit("client", uint64(i), []byte(fmt.Sprintf("pre-%d", i)), 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for backups to finish executing the prefix.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && c.replicas[1].Executed() < 5 {
		time.Sleep(time.Millisecond)
	}
	c.net.Partition([]string{"p0"})
	backup := c.replicas[1]
	_ = backup.Submit("client", 100, []byte("trigger"), 500*time.Millisecond)
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && backup.View() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	// Generous timeout: under -race with the whole suite in parallel on few
	// cores, the view change itself can take several seconds of wall clock.
	if err := backup.Submit("client", 101, []byte("post-vc"), 10*time.Second); err != nil {
		t.Fatalf("post-view-change submit: %v", err)
	}
	got := c.appliedAt("p1")
	if len(got) < 6 {
		t.Fatalf("applied = %v; executed prefix lost", got)
	}
	for i := 0; i < 5; i++ {
		if got[i] != fmt.Sprintf("pre-%d", i) {
			t.Fatalf("prefix reordered: %v", got)
		}
	}
}

func TestBadMACRejected(t *testing.T) {
	c := newCluster(t, 1, Options{}, netsim.Config{})
	// Inject a forged message (wrong MAC) claiming to be a pre-prepare
	// from the primary.
	forged := netsim.Message{From: "p0", To: "p1", Type: msgPrePrepare, Payload: []byte(`{"body":"e30=","mac":"AAAA"}`)}
	c.net.Send(forged)
	time.Sleep(20 * time.Millisecond)
	if c.replicas[1].Executed() != 0 {
		t.Fatal("forged message caused execution")
	}
	// The cluster still works afterwards.
	if err := c.replicas[0].Submit("client", 1, []byte("op"), 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestNonPrimaryPrePrepareIgnored(t *testing.T) {
	c := newCluster(t, 1, Options{}, netsim.Config{})
	// p2 (a backup) tries to equivocate as primary.
	rogue := c.replicas[2]
	pp := prePrepareMsg{View: 0, Seq: 0, Batch: []Request{{Client: "evil", Seq: 1, Op: []byte("x")}}}
	pp.Digest = digestOf(pp.Batch)
	rogue.broadcast(msgPrePrepare, pp)
	time.Sleep(50 * time.Millisecond)
	for _, r := range c.replicas {
		if r.Executed() != 0 {
			t.Fatalf("replica %s executed a rogue pre-prepare", r.ID())
		}
	}
}

func TestCheckpointGarbageCollects(t *testing.T) {
	c := newCluster(t, 1, Options{CheckpointEvery: 4}, netsim.Config{})
	primary := c.replicas[0]
	for i := 0; i < 12; i++ {
		if err := primary.Submit("client", uint64(i), []byte("op"), 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		primary.mu.Lock()
		stable := primary.stable
		nInsts := len(primary.insts)
		primary.mu.Unlock()
		if stable >= 8 && nInsts <= 8 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	primary.mu.Lock()
	defer primary.mu.Unlock()
	t.Fatalf("no GC: stable=%d, instances=%d", primary.stable, len(primary.insts))
}

func BenchmarkPBFTThroughputF1(b *testing.B) {
	c := newCluster(b, 1, Options{}, netsim.Config{})
	primary := c.replicas[0]
	op := []byte("benchmark-operation-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := primary.Submit("bench", uint64(i), op, 10*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func TestF2ClusterCommitsAndSurvivesTwoFaults(t *testing.T) {
	c := newCluster(t, 2, Options{}, netsim.Config{}) // n = 7
	primary := c.replicas[0]
	for i := 0; i < 5; i++ {
		if err := primary.Submit("client", uint64(i), []byte(fmt.Sprintf("op-%d", i)), 5*time.Second); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// Two backups crash: quorum 2f+1 = 5 of the remaining 5 still holds.
	c.net.Partition([]string{"p5"}, []string{"p6"})
	if err := primary.Submit("client", 100, []byte("after-two-faults"), 5*time.Second); err != nil {
		t.Fatalf("f=2 cluster stalled with 2 faults: %v", err)
	}
	// A third fault removes the quorum: no progress.
	c.net.Partition([]string{"p4"}, []string{"p5"}, []string{"p6"})
	if err := primary.Submit("client", 101, []byte("after-three-faults"), 500*time.Millisecond); err == nil {
		t.Fatal("committed without a quorum")
	}
}

func TestConflictingPrePrepareIgnored(t *testing.T) {
	// A Byzantine primary equivocating (two different batches for the same
	// (view, seq)) must not get both executed.
	c := newCluster(t, 1, Options{}, netsim.Config{})
	primary := c.replicas[0]
	if err := primary.Submit("client", 1, []byte("first"), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	// Re-issue seq 0 with different contents, signed properly by the
	// primary identity.
	pp := prePrepareMsg{View: 0, Seq: 0, Batch: []Request{{Client: "evil", Seq: 9, Op: []byte("second")}}}
	pp.Digest = digestOf(pp.Batch)
	primary.broadcast(msgPrePrepare, pp)
	time.Sleep(50 * time.Millisecond)
	for _, r := range c.replicas {
		got := c.appliedAt(r.ID())
		for _, op := range got {
			if op == "second" {
				t.Fatalf("replica %s executed an equivocated batch", r.ID())
			}
		}
	}
}

// TestSubmitTimesOutWithoutQuorum pins the deadline arm of Submit after
// the time.After -> stoppable-timer refactor: with the prepare quorum
// crashed, the call must come back with the timeout error at the
// deadline — neither early nor never.
func TestSubmitTimesOutWithoutQuorum(t *testing.T) {
	c := newCluster(t, 1, Options{}, netsim.Config{})
	for _, r := range c.replicas[1:] {
		if err := c.net.Crash(r.ID()); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 250 * time.Millisecond
	start := time.Now()
	err := c.replicas[0].Submit("cli", 1, []byte("op"), budget)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("Submit with a crashed quorum = %v, want timeout", err)
	}
	if since := time.Since(start); since < budget {
		t.Fatalf("Submit returned after %v, before its %v deadline", since, budget)
	}
}
