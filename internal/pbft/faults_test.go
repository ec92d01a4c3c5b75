package pbft

import (
	"fmt"
	"testing"
	"time"

	"prever/internal/netsim"
)

// TestLateTimerDoesNotTriggerSpuriousViewChange is the deterministic
// regression test for the view-change-timer bug: a timer could fire and
// block on the replica mutex while execution stopped it, and the callback
// would then start a view change for a request that had already executed.
// The fix re-checks the executed set inside the callback, so invoking the
// callback directly after execution must be a no-op.
func TestLateTimerDoesNotTriggerSpuriousViewChange(t *testing.T) {
	c := newCluster(t, 1, Options{}, netsim.Config{})
	backup := c.replicas[1]
	if err := backup.Submit("cli", 1, []byte("op-1"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	req := Request{Client: "cli", Seq: 1, Op: []byte("op-1")}
	d := digestOf([]Request{req})
	// Simulate the timer losing the race with execution: the AfterFunc
	// fires late, after the request executed and Stop was called.
	backup.onViewChangeTimeout(d, req)
	// A spurious view change would propagate within this window.
	time.Sleep(100 * time.Millisecond)
	for _, r := range c.replicas {
		if v := r.View(); v != 0 {
			t.Fatalf("replica %s moved to view %d after late timer on executed request", r.ID(), v)
		}
	}
}

// TestExecutedWorkloadNeverIncrementsView soaks the timer/execution race:
// every request is submitted through a backup (arming view-change timers
// on all replicas) with a timeout short enough that late-firing timers
// are likely. A workload that fully executes must leave the view at 0.
func TestExecutedWorkloadNeverIncrementsView(t *testing.T) {
	c := newCluster(t, 1, Options{ViewTimeout: 150 * time.Millisecond}, netsim.Config{})
	backup := c.replicas[2]
	const ops = 30
	for i := 0; i < ops; i++ {
		if err := backup.Submit("cli", uint64(i+1), []byte(fmt.Sprintf("op-%d", i)), 2*time.Second); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// Let any stale timers from the workload fire.
	time.Sleep(300 * time.Millisecond)
	for _, r := range c.replicas {
		if v := r.View(); v != 0 {
			t.Fatalf("fully-executed workload moved replica %s to view %d", r.ID(), v)
		}
		if got := r.Executed(); got != ops {
			t.Fatalf("replica %s executed %d/%d", r.ID(), got, ops)
		}
	}
}

// TestRestartCatchesUpViaStateTransfer crashes a backup mid-workload and
// verifies the restarted replica pulls the missed batches from f+1
// agreeing peers and converges on the identical applied stream.
func TestRestartCatchesUpViaStateTransfer(t *testing.T) {
	c := newCluster(t, 1, Options{}, netsim.Config{})
	primary, victim := c.replicas[0], c.replicas[3]
	submit := func(i int) {
		t.Helper()
		if err := primary.Submit("cli", uint64(i+1), []byte(fmt.Sprintf("op-%d", i)), 2*time.Second); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		submit(i)
	}
	if err := victim.Crash(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 12; i++ {
		submit(i)
	}
	if victim.Executed() >= 12 {
		t.Fatal("crashed replica kept executing")
	}
	if err := victim.Restart(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && victim.Executed() < 12 {
		time.Sleep(time.Millisecond)
	}
	if got := victim.Executed(); got != 12 {
		t.Fatalf("restarted replica executed %d/12", got)
	}
	want := c.appliedAt("p0")
	got := c.appliedAt("p3")
	if len(got) != len(want) {
		t.Fatalf("restarted replica applied %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restarted replica diverges at %d: %q vs %q", i, got[i], want[i])
		}
	}
}

// TestClientFailsOverOnPrimaryCrash kills the primary mid-workload; the
// failover client must ride the view change onto the next primary, and
// retried requests must execute exactly once thanks to client-seq dedup.
func TestClientFailsOverOnPrimaryCrash(t *testing.T) {
	c := newCluster(t, 1, Options{ViewTimeout: 200 * time.Millisecond}, netsim.Config{})
	client, err := NewClient(c.net, c.replicas, "cli", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := client.Submit([]byte(fmt.Sprintf("pre-%d", i)), 5*time.Second); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := c.replicas[0].Crash(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := client.Submit([]byte(fmt.Sprintf("post-%d", i)), 10*time.Second); err != nil {
			t.Fatalf("post-crash submit %d: %v", i, err)
		}
	}
	// Survivors moved past view 0 and applied every acked op exactly once.
	surv := c.replicas[1]
	if surv.View() == 0 {
		t.Fatal("survivor never left view 0 after primary crash")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && len(c.appliedAt(surv.ID())) < 6 {
		time.Sleep(time.Millisecond)
	}
	counts := map[string]int{}
	for _, op := range c.appliedAt(surv.ID()) {
		counts[op]++
	}
	for i := 0; i < 3; i++ {
		for _, pfx := range []string{"pre", "post"} {
			op := fmt.Sprintf("%s-%d", pfx, i)
			if counts[op] != 1 {
				t.Fatalf("acked op %q applied %d times on survivor", op, counts[op])
			}
		}
	}
}

// TestLatePrePrepareBelowStableCheckpoint: the primary sends a
// pre-prepare to one backup at a time, so a backup can hold every vote
// for sequence s — and see the others' checkpoint past s go stable —
// before s's pre-prepare reaches it. The checkpoint must not collect the
// votes of an instance this replica has not executed: the late
// pre-prepare would land in an empty instance and the replica would sit
// at s for good. One replica, fed by hand in exactly that order.
func TestLatePrePrepareBelowStableCheckpoint(t *testing.T) {
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	ids := []string{"p0", "p1", "p2", "p3"}
	r, err := newReplica(net, "p3", ids, 1, nil, Options{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(from, msgType string, m any) {
		r.handle(netsim.Message{From: from, To: "p3", Type: msgType, Payload: seal(r.keys[from], encodeBody(m))})
	}
	prePrepare := func(seq uint64) prePrepareMsg {
		pp := prePrepareMsg{Seq: seq, Batch: []Request{{Client: "c", Seq: seq, Op: []byte("op")}}}
		pp.Digest = digestOf(pp.Batch)
		return pp
	}
	votes := func(pp prePrepareMsg) {
		for _, from := range []string{"p1", "p2"} {
			feed(from, msgPrepare, prepareMsg{Seq: pp.Seq, Digest: pp.Digest, Replica: from})
		}
		for _, from := range []string{"p0", "p1", "p2"} {
			feed(from, msgCommit, commitMsg{Seq: pp.Seq, Digest: pp.Digest, Replica: from})
		}
	}
	for seq := uint64(0); seq < 3; seq++ {
		pp := prePrepare(seq)
		feed("p0", msgPrePrepare, pp)
		votes(pp)
	}
	if got := r.Executed(); got != 3 {
		t.Fatalf("executed %d after three full rounds, want 3", got)
	}
	late := prePrepare(3)
	votes(late)
	for _, from := range []string{"p0", "p1", "p2"} {
		feed(from, msgCheckpoint, checkpointMsg{Seq: 4, Replica: from})
	}
	feed("p0", msgPrePrepare, late)
	if got := r.Executed(); got != 4 {
		t.Fatalf("executed %d: the checkpoint dropped the votes the late pre-prepare needed", got)
	}
}
