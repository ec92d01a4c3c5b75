package chaos

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"prever/internal/netsim"
	"prever/internal/pbft"
)

// The durable chaos schedule hardens PBFT's recover-from-disk path:
// "crash" destroys the replica object entirely (Crash + CloseStorage —
// nothing survives but the data directory) and "restart" rebuilds the
// replica from disk with a FRESH checker restored through the
// Snapshotter, the way a process restart would. The safety contract is
// the same as the in-memory schedules — monotone sequence numbers,
// identical streams, every acked op applied exactly once — but now it
// must hold through WAL replay and snapshot restore instead of live
// memory.

// durableSeqChecker is a seqChecker that round-trips through a
// Snapshotter blob.
type durableSeqChecker struct {
	seqChecker
}

func (c *durableSeqChecker) Snapshot() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return json.Marshal(struct {
		LastSeq uint64   `json:"lastSeq"`
		Started bool     `json:"started"`
		Ops     []string `json:"ops"`
	}{c.lastSeq, c.started, c.ops})
}

func (c *durableSeqChecker) Restore(data []byte) error {
	var s struct {
		LastSeq uint64   `json:"lastSeq"`
		Started bool     `json:"started"`
		Ops     []string `json:"ops"`
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastSeq = s.LastSeq
	c.started = s.Started
	c.ops = s.Ops
	return nil
}

type durablePBFTChaosNode struct {
	mu  sync.Mutex
	id  string
	dir string
	r   *pbft.Replica
	sc  *durableSeqChecker
}

func (n *durablePBFTChaosNode) replica() *pbft.Replica {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.r
}

func (n *durablePBFTChaosNode) checker() *durableSeqChecker {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sc
}

func TestChaosPBFTRecoverFromDisk(t *testing.T) {
	seed := chaosSeed(t)
	logSeed(t, seed)
	// DropRate 0 as in TestChaosPBFT: no retransmission layer.
	net := netsim.New(faultyConfig(seed, 0))
	defer net.Close()
	base := t.TempDir()

	const f = 1
	ids := []string{"dbft0", "dbft1", "dbft2", "dbft3"}
	opts := pbft.Options{ViewTimeout: 250 * time.Millisecond}
	nodes := make(map[string]*durablePBFTChaosNode)
	start := func(id string) (*pbft.Replica, *durableSeqChecker, error) {
		sc := &durableSeqChecker{}
		r, err := pbft.NewDurableReplica(net, id, ids, f, sc.apply, opts, pbft.DurableOptions{
			Dir:           filepath.Join(base, id),
			App:           sc,
			SnapshotEvery: 8,
		})
		return r, sc, err
	}
	currentReplicas := func() []*pbft.Replica {
		out := make([]*pbft.Replica, 0, len(ids))
		for _, id := range ids {
			out = append(out, nodes[id].replica())
		}
		return out
	}

	var replicas []*pbft.Replica
	for _, id := range ids {
		r, sc, err := start(id)
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = &durablePBFTChaosNode{id: id, dir: filepath.Join(base, id), r: r, sc: sc}
		replicas = append(replicas, r)
	}
	client, err := pbft.NewClient(net, replicas, "chaos-durable-cli", pbft.ClientOptions{
		TryTimeout: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	var targets []Target
	for _, id := range ids {
		node := nodes[id]
		targets = append(targets, Target{
			ID: id,
			Crash: func() error {
				node.mu.Lock()
				defer node.mu.Unlock()
				if err := node.r.Crash(); err != nil {
					return err
				}
				return node.r.CloseStorage()
			},
			Restart: func() error {
				r, sc, err := start(node.id)
				if err != nil {
					return fmt.Errorf("recover %s from disk: %w", node.id, err)
				}
				node.mu.Lock()
				node.r, node.sc = r, sc
				node.mu.Unlock()
				client.SetReplicas(currentReplicas())
				return nil
			},
		})
	}

	inj := NewInjector(net, targets, Options{MaxDown: 1, Seed: seed})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); inj.Run(stop, 20*time.Millisecond) }()

	const ops = 30
	var acked []string
	for i := 0; i < ops; i++ {
		op := fmt.Sprintf("op-%d", i)
		if err := client.Submit([]byte(op), 25*time.Second); err != nil {
			t.Fatalf("submit %d: %v (seed %d, events %v)", i, err, seed, inj.Events())
		}
		acked = append(acked, op)
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	<-done
	if err := inj.HealAll(); err != nil {
		t.Fatalf("%v (seed %d)", err, seed)
	}

	// Liveness through recovered-from-disk replicas.
	for i := 0; i < 3; i++ {
		op := fmt.Sprintf("post-%d", i)
		if err := client.Submit([]byte(op), 25*time.Second); err != nil {
			t.Fatalf("post-heal submit %d: %v (seed %d, events %v)", i, err, seed, inj.Events())
		}
		acked = append(acked, op)
	}

	// Convergence on executed counts across current incarnations.
	deadline := time.Now().Add(15 * time.Second)
	for {
		rs := currentReplicas()
		var max uint64
		allEq := true
		for _, r := range rs {
			if e := r.Executed(); e > max {
				max = e
			}
		}
		for _, r := range rs {
			if r.Executed() != max {
				allEq = false
			}
		}
		if allEq && max > 0 {
			break
		}
		if time.Now().After(deadline) {
			var state []string
			for _, r := range rs {
				state = append(state, fmt.Sprintf("%s=%d", r.ID(), r.Executed()))
			}
			t.Fatalf("recovered replicas never converged: %v (seed %d, events %v)", state, seed, inj.Events())
		}
		for _, r := range rs {
			r.Sync()
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Safety: monotone seqs, identical streams, every acked op applied
	// exactly once on every recovered replica (dedup marks survive disk).
	want, bad := nodes[ids[0]].checker().snapshot()
	if len(bad) > 0 {
		t.Fatalf("replica %s broke seq contract: %v (seed %d, events %v)", ids[0], bad, seed, inj.Events())
	}
	for _, id := range ids[1:] {
		got, bad := nodes[id].checker().snapshot()
		if len(bad) > 0 {
			t.Fatalf("replica %s broke seq contract: %v (seed %d, events %v)", id, bad, seed, inj.Events())
		}
		if len(got) != len(want) {
			have := make(map[string]bool, len(got))
			for _, op := range got {
				have[op] = true
			}
			var missing []string
			for _, op := range want {
				if !have[op] {
					missing = append(missing, op)
				}
			}
			t.Fatalf("replica %s applied %d ops, %s applied %d; missing from %s: %v (seed %d, events %v)",
				id, len(got), ids[0], len(want), id, missing, seed, inj.Events())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replica %s diverges at %d: %q vs %q (seed %d)", id, i, got[i], want[i], seed)
			}
		}
	}
	counts := make(map[string]int)
	for _, op := range want {
		counts[op]++
	}
	for _, op := range acked {
		if counts[op] != 1 {
			t.Fatalf("acked op %q applied %d times after recovery (seed %d, events %v)", op, counts[op], seed, inj.Events())
		}
	}
}
