package pbft

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"prever/internal/netsim"
)

// durableSeqApp records applied batches in order and round-trips itself
// through a Snapshotter blob.
type durableSeqApp struct {
	mu  sync.Mutex
	Ops []string `json:"ops"`
}

func (a *durableSeqApp) apply(seq uint64, batch []Request) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, req := range batch {
		a.Ops = append(a.Ops, string(req.Op))
	}
}

func (a *durableSeqApp) Snapshot() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return json.Marshal(struct {
		Ops []string `json:"ops"`
	}{a.Ops})
}

func (a *durableSeqApp) Restore(data []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var s struct {
		Ops []string `json:"ops"`
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	a.Ops = s.Ops
	return nil
}

func (a *durableSeqApp) ops() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.Ops...)
}

type durablePBFTNode struct {
	r   *Replica
	app *durableSeqApp
	dir string
}

func startDurablePBFT(t *testing.T, net *netsim.Network, id string, ids []string, dir string, snapEvery uint64) *durablePBFTNode {
	t.Helper()
	n := &durablePBFTNode{app: &durableSeqApp{}, dir: dir}
	opts := Options{ViewTimeout: 300 * time.Millisecond}
	r, err := NewDurableReplica(net, id, ids, 1, n.app.apply, opts, DurableOptions{
		Dir:           dir,
		App:           n.app,
		SnapshotEvery: snapEvery,
	})
	if err != nil {
		t.Fatalf("NewDurableReplica(%s): %v", id, err)
	}
	n.r = r
	return n
}

func waitExecuted(t *testing.T, r *Replica, want uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if r.Executed() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s executed %d < %d after %s", r.ID(), r.Executed(), want, timeout)
}

// TestPBFTDurableRecoverFromDisk: a crashed replica rebuilt from its
// data directory holds the pre-crash history from disk alone (including
// the client-seq dedup marks), then state-transfers only the delta.
func TestPBFTDurableRecoverFromDisk(t *testing.T) {
	net := netsim.New(netsim.Config{})
	base := t.TempDir()
	ids := []string{"r0", "r1", "r2", "r3"}
	nodes := map[string]*durablePBFTNode{}
	for _, id := range ids {
		nodes[id] = startDurablePBFT(t, net, id, ids, filepath.Join(base, id), 8)
	}
	client, err := NewClient(net, []*Replica{nodes["r0"].r, nodes["r1"].r, nodes["r2"].r, nodes["r3"].r}, "cli", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const before = 15
	for i := 0; i < before; i++ {
		if err := client.Submit([]byte(fmt.Sprintf("op-%02d", i)), 3*time.Second); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for _, id := range ids {
		waitExecuted(t, nodes[id].r, before, 3*time.Second)
	}

	// Kill r3 (a backup): only its directory survives.
	if err := nodes["r3"].r.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := nodes["r3"].r.CloseStorage(); err != nil {
		t.Fatal(err)
	}
	const during = 8
	for i := 0; i < during; i++ {
		if err := client.Submit([]byte(fmt.Sprintf("down-%02d", i)), 3*time.Second); err != nil {
			t.Fatalf("submit while r3 down: %v", err)
		}
	}

	// Rebuild r3 from disk: the pre-crash history must be there before
	// any state transfer runs.
	rec := startDurablePBFT(t, net, "r3", ids, nodes["r3"].dir, 8)
	if got := rec.r.Executed(); got < before {
		t.Fatalf("recovered executed %d from disk, want >= %d", got, before)
	}
	if got := len(rec.app.ops()); got < before {
		t.Fatalf("recovered app has %d ops, want >= %d", got, before)
	}
	client.SetReplicas([]*Replica{nodes["r0"].r, nodes["r1"].r, nodes["r2"].r, rec.r})

	// State transfer pulls only the delta.
	rec.r.Sync()
	waitExecuted(t, rec.r, before+during, 3*time.Second)
	want := make([]string, 0, before+during)
	for i := 0; i < before; i++ {
		want = append(want, fmt.Sprintf("op-%02d", i))
	}
	for i := 0; i < during; i++ {
		want = append(want, fmt.Sprintf("down-%02d", i))
	}
	got := rec.app.ops()
	if len(got) != len(want) {
		t.Fatalf("recovered %d ops, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op[%d] = %q, want %q", i, got[i], want[i])
		}
	}

	// Exactly-once across the recovery: retrying an already-executed
	// client sequence is deduplicated by the recovered executedR state.
	preOps := len(rec.app.ops())
	if err := rec.r.Submit("cli", 1, []byte("op-00"), time.Second); err != nil {
		t.Fatalf("replayed submit: %v", err)
	}
	if got := len(rec.app.ops()); got != preOps {
		t.Fatalf("replayed client seq re-executed: %d ops, want %d", got, preOps)
	}
}

// TestPBFTDurableSnapshotCompaction: the journal is compacted behind
// snapshots, and recovery from the compacted dir restores the full
// stream and dedup state.
func TestPBFTDurableSnapshotCompaction(t *testing.T) {
	net := netsim.New(netsim.Config{})
	base := t.TempDir()
	ids := []string{"r0", "r1", "r2", "r3"}
	nodes := map[string]*durablePBFTNode{}
	for _, id := range ids {
		nodes[id] = startDurablePBFT(t, net, id, ids, filepath.Join(base, id), 4)
	}
	client, err := NewClient(net, []*Replica{nodes["r0"].r, nodes["r1"].r, nodes["r2"].r, nodes["r3"].r}, "cli", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const total = 25
	for i := 0; i < total; i++ {
		if err := client.Submit([]byte(fmt.Sprintf("v%02d", i)), 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		waitExecuted(t, nodes[id].r, total, 3*time.Second)
	}
	snaps, err := filepath.Glob(filepath.Join(nodes["r1"].dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("r1 dir has %d snapshots (%v), want exactly 1", len(snaps), err)
	}

	if err := nodes["r1"].r.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := nodes["r1"].r.CloseStorage(); err != nil {
		t.Fatal(err)
	}
	rec := startDurablePBFT(t, net, "r1", ids, nodes["r1"].dir, 4)
	if got := rec.r.Executed(); got != total {
		t.Fatalf("recovered executed = %d, want %d", got, total)
	}
	got := rec.app.ops()
	for i := 0; i < total; i++ {
		if got[i] != fmt.Sprintf("v%02d", i) {
			t.Fatalf("op[%d] = %q after compacted recovery", i, got[i])
		}
	}
}

// TestPBFTDurableCorruptTail: a flipped byte in the journal tail loses
// only the unsynced suffix; recovery truncates (never panics) and the
// replica converges via state transfer.
func TestPBFTDurableCorruptTail(t *testing.T) {
	net := netsim.New(netsim.Config{})
	base := t.TempDir()
	ids := []string{"r0", "r1", "r2", "r3"}
	nodes := map[string]*durablePBFTNode{}
	for _, id := range ids {
		nodes[id] = startDurablePBFT(t, net, id, ids, filepath.Join(base, id), 1000)
	}
	client, err := NewClient(net, []*Replica{nodes["r0"].r, nodes["r1"].r, nodes["r2"].r, nodes["r3"].r}, "cli", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const total = 10
	for i := 0; i < total; i++ {
		if err := client.Submit([]byte(fmt.Sprintf("v%02d", i)), 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		waitExecuted(t, nodes[id].r, total, 3*time.Second)
	}
	if err := nodes["r2"].r.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := nodes["r2"].r.CloseStorage(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(nodes["r2"].dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	b, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-5] ^= 0xFF
	if err := os.WriteFile(last, b, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := startDurablePBFT(t, net, "r2", ids, nodes["r2"].dir, 1000)
	if got := rec.r.Executed(); got >= total {
		t.Fatalf("corrupt tail should have lost the suffix, executed = %d", got)
	}
	rec.r.Sync()
	waitExecuted(t, rec.r, total, 3*time.Second)
	got := rec.app.ops()
	if len(got) != total {
		t.Fatalf("recovered %d ops, want %d", len(got), total)
	}
	for i := 0; i < total; i++ {
		if got[i] != fmt.Sprintf("v%02d", i) {
			t.Fatalf("op[%d] = %q after corrupt-tail recovery", i, got[i])
		}
	}
}
