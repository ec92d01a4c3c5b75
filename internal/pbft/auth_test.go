package pbft

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"prever/internal/netsim"
	"prever/internal/wire"
)

// loneReplica is p3 of a four-replica shard, driven by hand: the other
// three ids are sinks on the network that record what p3 sends them.
type loneReplica struct {
	r    *Replica
	net  *netsim.Network
	ids  []string
	mu   sync.Mutex
	sent []netsim.Message // what p3 sent, one entry per receiver
}

func newLoneReplica(t *testing.T) *loneReplica {
	t.Helper()
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	l := &loneReplica{net: net, ids: []string{"p0", "p1", "p2", "p3"}}
	for _, id := range l.ids[:3] {
		if err := net.Register(id, func(m netsim.Message) {
			l.mu.Lock()
			l.sent = append(l.sent, m)
			l.mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := newReplica(net, "p3", l.ids, 1, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.r = r
	return l
}

// deliver hands p3 a payload as if from sent it under msgType.
func (l *loneReplica) deliver(from, msgType string, payload []byte) {
	l.r.handle(netsim.Message{From: from, To: "p3", Type: msgType, Payload: payload})
}

// deliverBody hands p3 body, any bytes, under msgType in an envelope
// whose p3 slot from signed.
func (l *loneReplica) deliverBody(from, msgType string, body []byte) {
	payload := append(make([]byte, len(l.ids)*macSize), body...)
	sign(linkKey(clusterKey, from, "p3"), len(l.ids), 3, msgType, payload)
	l.deliver(from, msgType, payload)
}

// feed delivers v as from would broadcast it.
func (l *loneReplica) feed(from, msgType string, v any) {
	l.deliver(from, msgType, sealFrom(clusterKey, l.ids, from, msgType, v))
}

func (l *loneReplica) sentTypes() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	types := make([]string, len(l.sent))
	for i, m := range l.sent {
		types[i] = m.Type
	}
	return types
}

// waitSent returns the payload of the first msgType p3 sent, waiting for
// the network to deliver it to a sink.
func (l *loneReplica) waitSent(t *testing.T, msgType string) []byte {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		l.mu.Lock()
		for _, m := range l.sent {
			if m.Type == msgType {
				l.mu.Unlock()
				return m.Payload
			}
		}
		l.mu.Unlock()
	}
	t.Fatalf("p3 sent no %s", msgType)
	return nil
}

func onePrePrepare(seq uint64) prePrepareMsg {
	pp := prePrepareMsg{Seq: seq, Batch: []Request{{Client: "c", Seq: seq + 1, Op: []byte("op")}}}
	pp.Digest = digestOf(pp.Batch)
	return pp
}

// TestVotesCountForAuthenticatedSender: a vote counts once for the
// replica whose key its MAC opened under. One Byzantine replica, p1,
// sends its commit three times, two commits in the old layout that named
// p0 and p2 (refused: a vote names nobody now), three checkpoints, and
// view changes whose JSON names p0 and p2. None of it adds up to a
// quorum; the same votes from the replicas themselves do.
func TestVotesCountForAuthenticatedSender(t *testing.T) {
	l := newLoneReplica(t)
	pp := onePrePrepare(0)
	l.feed("p0", msgPrePrepare, pp)
	l.feed("p1", msgPrepare, prepareMsg{Seq: 0, Digest: pp.Digest})
	l.feed("p2", msgPrepare, prepareMsg{Seq: 0, Digest: pp.Digest}) // p3 is prepared: it commits
	commit := appendBody(nil, commitMsg{Seq: 0, Digest: pp.Digest})
	for _, body := range [][]byte{commit, commit, commit, wire.AppendString(commit, "p0"), wire.AppendString(commit, "p2")} {
		l.deliverBody("p1", msgCommit, body)
	}
	if got := l.r.Executed(); got != 0 {
		t.Fatalf("p1's commits alone made p3 execute (%d)", got)
	}
	l.feed("p2", msgCommit, commitMsg{Seq: 0, Digest: pp.Digest})
	if got := l.r.Executed(); got != 1 {
		t.Fatalf("executed %d with commits from p1, p2 and p3", got)
	}

	for i := 0; i < 3; i++ {
		l.feed("p1", msgCheckpoint, checkpointMsg{Seq: 128})
	}
	l.r.mu.Lock()
	stable := l.r.stable
	l.r.mu.Unlock()
	if stable != 0 {
		t.Fatalf("p1's checkpoints alone made %d stable", stable)
	}
	l.feed("p0", msgCheckpoint, checkpointMsg{Seq: 128})
	l.feed("p2", msgCheckpoint, checkpointMsg{Seq: 128})
	l.r.mu.Lock()
	stable = l.r.stable
	l.r.mu.Unlock()
	if stable != 128 {
		t.Fatalf("stable %d after checkpoints from p0, p1 and p2", stable)
	}

	for _, name := range []string{"p0", "p2"} {
		l.feed("p1", msgViewChange, json.RawMessage(`{"newView":1,"stable":0,"replica":"`+name+`"}`))
	}
	l.r.mu.Lock()
	inVC, votes := l.r.inVC, len(l.r.vcs[1])
	l.r.mu.Unlock()
	if inVC || votes != 1 {
		t.Fatalf("p1's view changes counted as %d votes (in view change: %v)", votes, inVC)
	}
	l.feed("p2", msgViewChange, viewChangeMsg{NewView: 1})
	l.r.mu.Lock()
	inVC = l.r.inVC
	l.r.mu.Unlock()
	if !inVC {
		t.Fatal("view changes from p1 and p2 (f+1) did not pull p3 along")
	}
}

// TestNewViewBeforeVotes: votes and the new view come from different
// senders, so p1's new view for view 1 can reach p3 before the second
// vote for that view. p3 does not move on it and one vote, but holds it:
// once p2's vote makes f+1, p3 enters view 1 and prepares p1's
// re-proposal, so prepares from p0 and p2 and commits from p0, p1 and p2
// make it execute.
func TestNewViewBeforeVotes(t *testing.T) {
	l := newLoneReplica(t)
	pp := onePrePrepare(0)
	pp.View = 1
	l.feed("p0", msgViewChange, viewChangeMsg{NewView: 1})
	l.feed("p1", msgNewView, newViewMsg{View: 1, PrePrepares: []prePrepareMsg{pp}, NextSeq: 1})
	if v := l.r.View(); v != 0 {
		t.Fatalf("a new view and one vote moved p3 to view %d", v)
	}
	l.feed("p2", msgViewChange, viewChangeMsg{NewView: 1})
	if v := l.r.View(); v != 1 {
		t.Fatalf("p3 in view %d after f+1 votes for view 1", v)
	}
	for _, from := range []string{"p0", "p2"} {
		l.feed(from, msgPrepare, prepareMsg{View: 1, Seq: 0, Digest: pp.Digest})
	}
	for _, from := range []string{"p0", "p1", "p2"} {
		l.feed(from, msgCommit, commitMsg{View: 1, Seq: 0, Digest: pp.Digest})
	}
	if got := l.r.Executed(); got != 1 {
		t.Fatalf("executed %d: p3 did not prepare the held new view's re-proposal", got)
	}
}

// TestRelabelledVoteRefused: a prepare and a commit for the same
// instance have the same body, so the MAC binds the type. p1's prepare,
// put on the wire as a commit, opens nowhere and counts as nothing.
func TestRelabelledVoteRefused(t *testing.T) {
	l := newLoneReplica(t)
	pp := onePrePrepare(0)
	l.feed("p0", msgPrePrepare, pp)
	prepare := sealFrom(clusterKey, l.ids, "p1", msgPrepare, prepareMsg{Seq: 0, Digest: pp.Digest})
	if _, ok := open(l.r.recvKeys["p1"], len(l.ids), 3, msgCommit, prepare); ok {
		t.Fatal("a prepare opened as a commit")
	}
	l.deliver("p1", msgCommit, prepare)
	l.r.mu.Lock()
	commits := len(l.r.insts[0].commits)
	l.r.mu.Unlock()
	if commits != 0 {
		t.Fatalf("a relabelled prepare counted as %d commits", commits)
	}
	l.deliver("p1", msgPrepare, prepare)
	l.r.mu.Lock()
	prepared := l.r.insts[0].prepares["p1"]
	l.r.mu.Unlock()
	if !prepared {
		t.Fatal("the prepare under its own type did not count")
	}
}

// TestAlteredBatchRefused: a pre-prepare's MACs cover its header, not
// its requests. A batch altered in flight keeps a valid MAC and must
// fall to the digest check: no prepare goes out, and the instance is
// left as it was.
func TestAlteredBatchRefused(t *testing.T) {
	l := newLoneReplica(t)
	pp := onePrePrepare(0)
	payload := sealFrom(clusterKey, l.ids, "p0", msgPrePrepare, pp)
	altered := append([]byte(nil), payload...)
	altered[len(altered)-1] ^= 0x01 // the last byte of the op
	if _, ok := open(l.r.recvKeys["p0"], len(l.ids), 3, msgPrePrepare, altered); !ok {
		t.Fatal("the header MAC did not verify: this test exercises nothing")
	}
	l.deliver("p0", msgPrePrepare, altered)
	l.r.mu.Lock()
	_, touched := l.r.insts[0]
	l.r.mu.Unlock()
	if touched {
		t.Fatal("an altered batch reached the instance")
	}
	// The batch as the primary sent it draws one prepare to each peer.
	// Delivery is in order, so a prepare for the altered batch would have
	// reached the sinks first.
	l.deliver("p0", msgPrePrepare, payload)
	deadline := time.Now().Add(5 * time.Second)
	for len(l.sentTypes()) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if sent := l.sentTypes(); len(sent) != 3 || sent[0] != msgPrepare {
		t.Fatalf("p3 sent %v, want one prepare to each peer for the intact batch and nothing for the altered one", sent)
	}
}

// TestSlotOpensOnlyAtItsReceiver: every receiver of a broadcast opens
// its own slot and no other — a MAC moved to another receiver's index
// does not verify there — and a send to one replica fills its slot only.
func TestSlotOpensOnlyAtItsReceiver(t *testing.T) {
	ids := []string{"p0", "p1", "p2", "p3"}
	n := len(ids)
	c := commitMsg{View: 3, Seq: 9, Digest: digestOf(nil)}
	payload := sealFrom(clusterKey, ids, "p0", msgCommit, c)
	for j := 1; j < n; j++ {
		key := linkKey(clusterKey, "p0", ids[j])
		for k := 0; k < n; k++ {
			if _, ok := open(key, n, k, msgCommit, payload); ok != (k == j) {
				t.Fatalf("p%d's key opens slot %d: %v", j, k, ok)
			}
		}
		moved := append([]byte(nil), payload...)
		copy(moved[j*macSize:(j+1)*macSize], payload[(j%3+1)*macSize:])
		if _, ok := open(key, n, j, msgCommit, moved); ok {
			t.Fatalf("p%d opened the MAC of p%d", j, j%3+1)
		}
	}
	one := envelope(n, c)
	sign(linkKey(clusterKey, "p0", "p2"), n, 2, msgCommit, one)
	for j := 1; j < n; j++ {
		if _, ok := open(linkKey(clusterKey, "p0", ids[j]), n, j, msgCommit, one); ok != (j == 2) {
			t.Fatalf("a send to p2 opens at p%d: %v", j, ok)
		}
	}
}

// TestReflectedVoteRefused: every receiver of a broadcast sees every
// slot, so the keys are per direction. p3's own prepare and commit, with
// the slots it filled for p1 and p2 copied into its own index and handed
// back to it as from p1 and p2, open nowhere: p3 counts neither vote,
// sends no commit on the reflected prepares and does not execute on the
// reflected commits.
func TestReflectedVoteRefused(t *testing.T) {
	l := newLoneReplica(t)
	pp := onePrePrepare(0)
	reflect := func(msgType string) {
		payload := l.waitSent(t, msgType)
		for _, i := range []int{1, 2} {
			moved := append([]byte(nil), payload...)
			copy(moved[3*macSize:4*macSize], payload[i*macSize:(i+1)*macSize])
			if _, ok := open(l.r.recvKeys[l.ids[i]], len(l.ids), 3, msgType, moved); ok {
				t.Fatalf("p3's %s, slot %d moved to slot 3, opened as from %s", msgType, i, l.ids[i])
			}
			l.deliver(l.ids[i], msgType, moved)
		}
	}
	votes := func() (prepares, commits int) {
		l.r.mu.Lock()
		defer l.r.mu.Unlock()
		return len(l.r.insts[0].prepares), len(l.r.insts[0].commits)
	}

	l.feed("p0", msgPrePrepare, pp)
	reflect(msgPrepare)
	time.Sleep(20 * time.Millisecond)
	if prepares, _ := votes(); prepares != 1 {
		t.Fatalf("p3 counts %d prepares, want its own only", prepares)
	}
	for _, typ := range l.sentTypes() {
		if typ == msgCommit {
			t.Fatal("p3 committed on its own reflected prepares")
		}
	}

	l.feed("p1", msgPrepare, prepareMsg{Seq: 0, Digest: pp.Digest}) // p3 is prepared: it commits
	reflect(msgCommit)
	if _, commits := votes(); commits != 1 {
		t.Fatalf("p3 counts %d commits, want its own only", commits)
	}
	if got := l.r.Executed(); got != 0 {
		t.Fatalf("p3 executed %d on its own reflected commits", got)
	}
	l.feed("p2", msgCommit, commitMsg{Seq: 0, Digest: pp.Digest})
	l.feed("p1", msgCommit, commitMsg{Seq: 0, Digest: pp.Digest})
	if got := l.r.Executed(); got != 1 {
		t.Fatalf("executed %d with commits from p1, p2 and p3", got)
	}
}
