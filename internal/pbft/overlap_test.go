package pbft

import (
	"sync"
	"testing"
	"time"

	"prever/internal/leaktest"
	"prever/internal/netsim"
)

// applyProbe is an Applier that counts its calls in flight, records each
// seq, and holds the apply of one seq until released.
type applyProbe struct {
	hold    uint64
	held    chan struct{} // closed when the apply of hold starts
	release chan struct{}
	once    sync.Once

	mu       sync.Mutex
	inFlight int
	maxIn    int
	seqs     []uint64
}

func newApplyProbe(hold uint64) *applyProbe {
	return &applyProbe{hold: hold, held: make(chan struct{}), release: make(chan struct{})}
}

func (p *applyProbe) apply(seq uint64, _ Request) {
	p.mu.Lock()
	p.inFlight++
	p.maxIn = max(p.maxIn, p.inFlight)
	p.seqs = append(p.seqs, seq)
	p.mu.Unlock()
	if seq == p.hold {
		close(p.held)
		<-p.release
	}
	p.mu.Lock()
	p.inFlight--
	p.mu.Unlock()
}

func (p *applyProbe) releaseHeld() { p.once.Do(func() { close(p.release) }) }

func (p *applyProbe) applied() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.seqs)
}

// check fails t unless the applies never overlapped and their seqs
// strictly increased.
func (p *applyProbe) check(t *testing.T, id string) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.maxIn > 1 {
		t.Errorf("%s had %d applies in flight at once (seqs %v)", id, p.maxIn, p.seqs)
	}
	for i := 1; i < len(p.seqs); i++ {
		if p.seqs[i] <= p.seqs[i-1] {
			t.Errorf("%s applied seqs %v, not strictly increasing", id, p.seqs)
			break
		}
	}
}

// probedCluster is four in-memory replicas, each applying through a
// probe; p1's probe holds the apply of seq hold and p1 runs with opts1.
func probedCluster(t *testing.T, hold uint64, opts1 Options) (*netsim.Network, []*Replica, []*applyProbe) {
	t.Helper()
	net := netsim.New(netsim.Config{})
	ids := []string{"p0", "p1", "p2", "p3"}
	var replicas []*Replica
	var probes []*applyProbe
	for i, id := range ids {
		probe, opts := newApplyProbe(^uint64(0)), Options{}
		if i == 1 {
			probe, opts = newApplyProbe(hold), opts1
		}
		r, err := NewReplica(net, id, ids, 1, probe.apply, opts)
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
		probes = append(probes, probe)
	}
	return net, replicas, probes
}

func waitHeld(t *testing.T, p *applyProbe) {
	t.Helper()
	select {
	case <-p.held:
	case <-time.After(5 * time.Second):
		t.Fatal("the held apply never started")
	}
}

// TestRestartWaitsForCrashedApply: p1 crashes while its apply of seq 0
// is held, the other three execute seq 1, and p1 restarts. Its restarted
// generation must not state-transfer and apply seq 1 while the crashed
// one is still inside apply(0): Restart waits for that apply to return.
func TestRestartWaitsForCrashedApply(t *testing.T) {
	defer leaktest.Check(t)()
	net, replicas, probes := probedCluster(t, 0, Options{})
	defer net.Close()
	defer probes[1].releaseHeld()
	primary, b := replicas[0], replicas[1]

	primary.SubmitAsync("cli", 1, []byte("op-0"))
	waitHeld(t, probes[1])
	if err := b.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Submit("cli", 2, []byte("op-1"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Replica{replicas[2], replicas[3]} {
		waitExecuted(t, r, 2, 5*time.Second)
	}
	restarted := make(chan error, 1)
	go func() { restarted <- b.Restart() }()
	// f+1 peers vouch for seq 1 as soon as p1 syncs; give an overlapping
	// apply of it time to start before the held one returns.
	for deadline := time.Now().Add(300 * time.Millisecond); probes[1].applied() < 2 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
	}
	probes[1].releaseHeld()
	select {
	case err := <-restarted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Restart did not return after the held apply did")
	}
	waitExecuted(t, b, 2, 5*time.Second)
	for deadline := time.Now().Add(5 * time.Second); probes[1].applied() < 2 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
	}
	for i, p := range probes {
		p.check(t, replicas[i].ID())
	}
	if got := probes[1].applied(); got != 2 {
		t.Fatalf("p1 applied %d requests, want 2", got)
	}
}

// TestTimeoutAndSyncQueueBehindApply: while p1's apply of seq 1 is held,
// its view-change timer for the request at seq 2 fires and Sync is
// called. Both are inputs queued behind the apply; once it returns p1
// executes seq 2 in order, and no replica applies two requests at once.
func TestTimeoutAndSyncQueueBehindApply(t *testing.T) {
	defer leaktest.Check(t)()
	const timeout = 50 * time.Millisecond
	net, replicas, probes := probedCluster(t, 1, Options{ViewTimeout: timeout})
	defer net.Close()
	defer probes[1].releaseHeld()
	primary, b := replicas[0], replicas[1]

	if err := primary.Submit("cli", 1, []byte("op-0"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Submitted at p1, a backup: it arms a timer for each and broadcasts
	// them, and the primary orders them at seqs 1 and 2.
	b.SubmitAsync("cli", 2, []byte("op-1"))
	b.SubmitAsync("cli", 3, []byte("op-2"))
	waitHeld(t, probes[1])
	time.Sleep(3 * timeout) // op-2's timer fires while apply(1) is held
	b.Sync()
	time.Sleep(timeout)
	probes[1].releaseHeld()
	for _, r := range replicas {
		waitExecuted(t, r, 3, 5*time.Second)
	}
	for i, p := range probes {
		for deadline := time.Now().Add(5 * time.Second); p.applied() < 3 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		}
		p.check(t, replicas[i].ID())
		if got := p.applied(); got != 3 {
			t.Errorf("%s applied %d requests, want 3", replicas[i].ID(), got)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for _, r := range replicas {
		if v := r.View(); v != 0 {
			t.Fatalf("%s moved to view %d", r.ID(), v)
		}
	}
}
