package paxos

import (
	"fmt"
	"testing"
	"time"

	"prever/internal/netsim"
)

// TestDuelingLeadersConverge: two replicas grab leadership in turn; the
// committed log must stay consistent (no slot chosen twice with different
// values) and the higher ballot wins.
func TestDuelingLeadersConverge(t *testing.T) {
	c := newCluster(t, 5, netsim.Config{})
	a, b := c.replicas[0], c.replicas[1]
	if err := a.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Propose([]byte(fmt.Sprintf("a-%d", i)), 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// b usurps leadership mid-stream.
	if err := b.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Propose([]byte(fmt.Sprintf("b-%d", i)), 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// a tries again, re-elects with a higher ballot, proposes more.
	if err := a.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Propose([]byte("a-final"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Every chosen slot must agree across the replicas that know it.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && applied(a) < 7 {
		time.Sleep(time.Millisecond)
	}
	for slot := uint64(0); slot < 7; slot++ {
		var ref []byte
		for _, r := range c.replicas {
			v, ok := chosen(r, slot)
			if !ok {
				continue
			}
			if ref == nil {
				ref = v
			} else if string(ref) != string(v) {
				t.Fatalf("slot %d chosen twice: %q vs %q", slot, ref, v)
			}
		}
		if ref == nil {
			t.Fatalf("slot %d never chosen anywhere", slot)
		}
	}
}

// TestElectionRecoveryOfUnchosenValue: a value accepted by a minority
// under a dying leader must either be completed or consistently replaced —
// never half-applied.
func TestElectionRecoveryPreservesAcceptedValues(t *testing.T) {
	c := newCluster(t, 3, netsim.Config{})
	old := c.replicas[0]
	if err := old.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := old.Propose([]byte("committed"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Kill the old leader before it can propose more.
	c.net.Partition([]string{"r0"})
	next := c.replicas[1]
	if err := next.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := next.Propose([]byte("next-era"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	v, ok := chosen(next, 0)
	if !ok || string(v) != "committed" {
		t.Fatalf("slot 0 after failover = %q, %v", v, ok)
	}
}

// TestDeposedLeaderReElectsAfterHeal: a leader partitioned through an
// election it never saw campaigns again after the heal. Its next ballot
// is below the one every peer has promised, so the peers must refuse it
// in a way that lets it outbid them, not ignore it until the timeout.
func TestDeposedLeaderReElectsAfterHeal(t *testing.T) {
	c := newCluster(t, 5, netsim.Config{})
	a, b := c.replicas[0], c.replicas[1]
	electAndPropose(t, a, "a-0")
	c.net.Partition([]string{"r0"})
	electAndPropose(t, b, "b-0")
	c.net.Heal()
	if err := a.BecomeLeader(2 * time.Second); err != nil {
		t.Fatalf("deposed leader cannot re-elect after heal: %v", err)
	}
	if slot, err := a.Propose([]byte("a-1"), 2*time.Second); err != nil || slot != 2 {
		t.Fatalf("post-heal proposal: slot %d, %v; want slot 2", slot, err)
	}
	checkChosen(t, a, "a-0", "b-0")
}

// TestLaggingReplicaWinsElection: a replica that missed a run of commits
// is elected and catches up by re-proposing what the promise quorum
// carries, before its own proposal lands above them.
func TestLaggingReplicaWinsElection(t *testing.T) {
	c := newCluster(t, 5, netsim.Config{})
	lagger := c.replicas[4]
	c.net.Partition([]string{"r4"})
	var want []string
	for i := 0; i < 10; i++ {
		want = append(want, fmt.Sprintf("v%d", i))
	}
	electAndPropose(t, c.replicas[0], want...)
	c.net.Heal()
	if err := lagger.BecomeLeader(2 * time.Second); err != nil {
		t.Fatalf("lagging replica cannot win an election: %v", err)
	}
	if slot, err := lagger.Propose([]byte("next"), 2*time.Second); err != nil || slot != 10 {
		t.Fatalf("lagging leader's proposal: slot %d, %v; want slot 10", slot, err)
	}
	checkChosen(t, lagger, want...)
}

func electAndPropose(t *testing.T, r *Replica, values ...string) {
	t.Helper()
	if err := r.BecomeLeader(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if _, err := r.Propose([]byte(v), 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

// checkChosen waits for r to apply the given values, then checks they
// are the chosen values of slots 0, 1, ….
func checkChosen(t *testing.T, r *Replica, want ...string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && applied(r) < uint64(len(want)) {
		time.Sleep(time.Millisecond)
	}
	for slot, w := range want {
		if v, ok := chosen(r, uint64(slot)); !ok || string(v) != w {
			t.Fatalf("slot %d at %s = %q, %v; want %q", slot, r.ID(), v, ok, w)
		}
	}
}
