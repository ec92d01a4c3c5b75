package pbft

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"prever/internal/netsim"
	"prever/internal/wal"
)

// durableSeqApp records applied requests in order and round-trips itself
// through a Snapshotter blob.
type durableSeqApp struct {
	mu  sync.Mutex
	Ops []string `json:"ops"`
}

func (a *durableSeqApp) apply(seq uint64, req Request) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.Ops = append(a.Ops, string(req.Op))
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

// waitOps waits for app to hold at least n ops: Executed counts a batch
// from the moment it executes, before its apply has returned.
func waitOps(t *testing.T, app *durableSeqApp, n int, timeout time.Duration) {
	t.Helper()
	for deadline := time.Now().Add(timeout); len(app.ops()) < n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
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
	waitOps(t, rec.app, before+during, 3*time.Second)
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
	waitOps(t, rec.app, total, 3*time.Second)
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

// TestStoredImagesIdentical: snapshots fall on multiples of
// SnapshotEvery, so the four replicas of a cluster that executed six
// sequences each hold the image at four, and the four images are the
// same bytes — what a straggler needs f+1 of to adopt one.
func TestStoredImagesIdentical(t *testing.T) {
	net := netsim.New(netsim.Config{})
	base := t.TempDir()
	ids := []string{"r0", "r1", "r2", "r3"}
	var replicas []*Replica
	for _, id := range ids {
		replicas = append(replicas, startDurablePBFT(t, net, id, ids, filepath.Join(base, id), 4).r)
	}
	client, err := NewClient(net, replicas, "cli", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const total = 6
	for i := 0; i < total; i++ {
		if err := client.Submit([]byte(fmt.Sprintf("v%02d", i)), 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	var want []byte
	for _, r := range replicas {
		waitExecuted(t, r, total, 3*time.Second)
		img := storedImage(r.log, 0)
		if img == nil || img.ExecSeq != 4 {
			t.Fatalf("%s stores image %+v, want one at 4", r.ID(), img)
		}
		got, _ := json.Marshal(img)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("%s stores image %s, r0 %s", r.ID(), got, want)
		}
	}
}

// snapAtApp is durableSeqApp that records how many ops it held at each
// snapshot.
type snapAtApp struct {
	durableSeqApp
	at []int
}

func (a *snapAtApp) Snapshot() ([]byte, error) {
	b, err := a.durableSeqApp.Snapshot()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.at = append(a.at, len(a.Ops))
	return b, err
}

// TestSnapshotAtEveryAlignedPoint: with SnapshotEvery equal to
// CheckpointEvery every aligned point is also a checkpoint vote. p3 is
// prepared on 64 sequences, then p1's and p2's commits for all of them
// reach it through the network at once and queue behind a slow Applier;
// p3 must still snapshot at every multiple of two (one op per sequence,
// so at every even op count) and skip none.
func TestSnapshotAtEveryAlignedPoint(t *testing.T) {
	const every, total = 2, 64
	l := newLoneSinks(t)
	app := &snapAtApp{}
	slow := func(seq uint64, req Request) {
		time.Sleep(200 * time.Microsecond)
		app.apply(seq, req)
	}
	r, err := NewDurableReplica(l.net, "p3", l.ids, 1, slow, Options{CheckpointEvery: every}, DurableOptions{Dir: t.TempDir(), App: app, SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.CloseStorage() })
	l.r = r
	for seq := uint64(0); seq < total; seq++ {
		l.prepare(onePrePrepare(seq))
	}
	for seq := uint64(0); seq < total; seq++ {
		pp := onePrePrepare(seq)
		for _, from := range []string{"p1", "p2"} {
			c := commitMsg{View: pp.View, Seq: pp.Seq, Digest: pp.Digest}
			l.net.Send(netsim.Message{From: from, To: "p3", Type: msgCommit, Payload: sealFrom(clusterKey, l.ids, from, msgCommit, c)})
		}
	}
	snaps := func() []int {
		app.mu.Lock()
		defer app.mu.Unlock()
		return append([]int(nil), app.at...)
	}
	for deadline := time.Now().Add(5 * time.Second); len(snaps()) < total/every && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
	}
	at := snaps()
	if r.Executed() != total || len(at) != total/every {
		t.Fatalf("p3 executed %d and snapshotted at op counts %v, want %d and every multiple of %d", r.Executed(), at, total, every)
	}
	for k, n := range at {
		if n != every*(k+1) {
			t.Fatalf("p3 snapshotted at op counts %v, want every multiple of %d", at, every)
		}
	}
}

// newLoneDurable is newLoneReplica with p3 crash-durable in dir.
func newLoneDurable(t *testing.T, dir string, snapEvery uint64) (*loneReplica, *durableSeqApp) {
	t.Helper()
	l := newLoneSinks(t)
	app := &durableSeqApp{}
	r, err := NewDurableReplica(l.net, "p3", l.ids, 1, app.apply, Options{}, DurableOptions{Dir: dir, App: app, SnapshotEvery: snapEvery})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.CloseStorage() })
	l.r = r
	return l, app
}

// prepare feeds p3 pp from p0 and prepares from p1 and p2: p3 is then
// prepared and has sent its commit.
func (l *loneReplica) prepare(pp prePrepareMsg) {
	l.feed("p0", msgPrePrepare, pp)
	for _, from := range []string{"p1", "p2"} {
		l.feed(from, msgPrepare, prepareMsg{View: pp.View, Seq: pp.Seq, Digest: pp.Digest})
	}
}

// TestStateReplyServesSnapshotNotTip: a replica that executed six
// sequences past its snapshot at four offers the image at four, read
// from disk, not a fresh image of its tip.
func TestStateReplyServesSnapshotNotTip(t *testing.T) {
	l, app := newLoneDurable(t, t.TempDir(), 4)
	for seq := uint64(0); seq < 6; seq++ {
		pp := onePrePrepare(seq)
		l.prepare(pp)
		for _, from := range []string{"p1", "p2"} {
			l.feed(from, msgCommit, commitMsg{View: pp.View, Seq: pp.Seq, Digest: pp.Digest})
		}
	}
	if got := l.r.Executed(); got != 6 || len(app.ops()) != 6 {
		t.Fatalf("p3 executed %d, applied %d ops; want 6", got, len(app.ops()))
	}
	l.feed("p1", msgStateReq, stateReqMsg{Have: 0})
	var rep stateRepMsg
	if err := json.Unmarshal(l.waitSent(t, msgStateRep)[len(l.ids)*macSize:], &rep); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(struct {
		Ops []string `json:"ops"`
	}{[]string{"op", "op", "op", "op"}})
	if rep.Snap == nil || rep.Snap.ExecSeq != 4 || len(rep.Snap.Executed) != 4 || !bytes.Equal(rep.Snap.App, want) {
		t.Fatalf("p3 at 6 offered image %+v, want its snapshot at 4", rep.Snap)
	}
}

// TestAdoptedImageKeepsPreparedCert: p3 prepares sequence 5, then adopts
// an image at 4 that p0 and p1 offer. Storing the image compacts the
// journal that held the certificate, so the snapshot must carry it: a
// recovered p3 still holds the certificate it voted on.
func TestAdoptedImageKeepsPreparedCert(t *testing.T) {
	dir := t.TempDir()
	l, app := newLoneDurable(t, dir, 4)
	pp := onePrePrepare(5)
	l.prepare(pp)
	img := stateImage{ExecSeq: 4, Executed: []string{"c/1", "c/2"}, App: []byte(`{"ops":["a","b"]}`)}
	for _, from := range []string{"p0", "p1"} {
		l.feed(from, msgStateRep, stateRepMsg{Snap: &img})
	}
	if got := l.r.Executed(); got != 4 || len(app.ops()) != 2 {
		t.Fatalf("p3 at %d with %d ops after the image, want 4 and 2", got, len(app.ops()))
	}
	if err := l.r.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := l.r.CloseStorage(); err != nil {
		t.Fatal(err)
	}
	r, err := NewDurableReplica(l.net, "p3", l.ids, 1, nil, Options{}, DurableOptions{Dir: dir, App: &durableSeqApp{}, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.CloseStorage() }()
	var inst *instState
	onLoop(t, r, func() { inst = r.insts[5] })
	if r.Executed() != 4 || inst == nil || inst.cert == nil || inst.cert.Digest != pp.Digest {
		t.Fatalf("recovered p3 at %d holds instance 5 as %+v, want its prepared certificate", r.Executed(), inst)
	}
}

// TestAdoptedImageWakesWaiter: p3 lags, and a caller waits on it for
// request c/1, when it adopts an image at 4 that p0 and p1 offer. The
// image covers c/1, which p3 then never executes itself: the adoption
// must wake the caller and leave no waiter behind.
func TestAdoptedImageWakesWaiter(t *testing.T) {
	l, _ := newLoneDurable(t, t.TempDir(), 4)
	done := l.r.SubmitAsync("c", 1, []byte("a"))
	img := stateImage{ExecSeq: 4, Executed: []string{"c/1", "c/2"}, App: []byte(`{"ops":["a","b"]}`)}
	for _, from := range []string{"p0", "p1"} {
		l.feed(from, msgStateRep, stateRepMsg{Snap: &img})
	}
	if got := l.r.Executed(); got != 4 {
		t.Fatalf("p3 at %d after the image, want 4", got)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("the caller waiting on c/1 still waits after p3 adopted an image that covers it")
	}
	var waiting int
	l.do(func() { waiting = len(l.r.waiters) })
	if waiting != 0 {
		t.Fatalf("p3 still holds %d waiters", waiting)
	}
}

// FuzzStateRep: a state reply is whatever an authenticated peer sends.
// No body from one sender, p1, may panic p3, or make it execute or adopt
// anything: both take f+1 = 2 senders.
func FuzzStateRep(f *testing.F) {
	img := stateImage{ExecSeq: 4, Executed: []string{"c/1"}, App: []byte(`{"ops":["a"]}`)}
	pp := onePrePrepare(0)
	for _, rep := range []stateRepMsg{
		{Snap: &img, View: 2},
		{Entries: []prePrepareMsg{pp}},
		{Snap: &stateImage{ExecSeq: 4, App: []byte("not json")}},
	} {
		f.Add(appendBody(nil, rep))
	}
	f.Add([]byte(`{"entries":[{"seq":0,"req":null}],"snap":{"execSeq":18446744073709551615}}`))
	f.Add([]byte(`{"entries":[` + twoRequestEntry(0) + `]}`))
	f.Add([]byte(`{"snap":null,"view":1}`))
	f.Add([]byte("{"))
	f.Fuzz(func(t *testing.T, body []byte) {
		l, app := newLoneDurable(t, t.TempDir(), 4)
		for i := 0; i < 2; i++ { // one sender, twice
			l.deliverBody("p1", msgStateRep, body)
		}
		if got := l.r.Executed(); got != 0 || len(app.ops()) != 0 {
			t.Fatalf("one sender moved p3 to %d with %d ops", got, len(app.ops()))
		}
	})
}

// FuzzColdBodies: a view-change, new-view or state request is whatever
// an authenticated peer sends. No body from one sender, delivered under
// each of the three types, may panic p3, move its view, or make it
// execute anything: a view moves on f+1 = 2 voters, and a request for
// state serves it, never changes it. from picks the sender among p0–p2,
// so a body can name a view whose primary sent it.
func FuzzColdBodies(f *testing.F) {
	pp := onePrePrepare(0)
	pp.View = 1
	for _, v := range []any{
		viewChangeMsg{NewView: 1, Exec: 3, Prepared: []prePrepareMsg{pp}},
		newViewMsg{View: 1, PrePrepares: []prePrepareMsg{pp}, NextSeq: 1},
		stateReqMsg{View: 5},
	} {
		f.Add(byte(1), appendBody(nil, v))
	}
	f.Add(byte(2), []byte(`{"view":2,"newView":2,"nextSeq":18446744073709551615}`))
	f.Add(byte(0), []byte(`{"newView":3,"prepared":[{"seq":1,"req":null}]}`))
	f.Add(byte(1), []byte(`{"newView":1,"exec":3,"prepared":[`+twoRequestEntry(0)+`]}`))
	f.Add(byte(1), []byte(`{"view":1,"preprepares":[null]}`))
	f.Add(byte(1), []byte("null"))
	f.Add(byte(1), []byte("{"))
	f.Fuzz(func(t *testing.T, from byte, body []byte) {
		l, app := newLoneDurable(t, t.TempDir(), 4)
		sender := l.ids[int(from)%3]
		for _, msgType := range []string{msgViewChange, msgNewView, msgStateReq} {
			for i := 0; i < 2; i++ { // one sender, twice
				l.deliverBody(sender, msgType, body)
			}
		}
		if v, got := l.r.View(), l.r.Executed(); v != 0 || got != 0 || len(app.ops()) != 0 {
			t.Fatalf("one sender, %s, moved p3 to view %d, executed %d with %d ops", sender, v, got, len(app.ops()))
		}
	})
}

// TestReqKeyRoundTrip: a snapshot spells an executed request's key
// "client/seq", as builds that keyed the dedup set by that string did, so
// their snapshots and the goldens hold; it reads back at the last '/',
// since a client name may hold '/' (the chain's are "chain/<shard>/<nonce>").
func TestReqKeyRoundTrip(t *testing.T) {
	for _, k := range []reqKey{{"chain/s0/0123456789ab", 7}, {"", 0}, {"a/b/", 1<<64 - 1}} {
		s := k.String()
		if want := fmt.Sprintf("%s/%d", k.client, k.seq); s != want {
			t.Fatalf("%+v is spelled %q, want %q", k, s, want)
		}
		if got, err := parseReqKey(s); err != nil || got != k {
			t.Fatalf("%q reads back as %+v, %v", s, got, err)
		}
	}
	for _, bad := range []string{"no-slash", "c/", "c/x", "c/-1", "c/18446744073709551616"} {
		if k, err := parseReqKey(bad); err == nil {
			t.Fatalf("%q read as %+v", bad, k)
		}
	}
}

// FuzzRecoverSnapshot: a durable replica's snapshot is read back from
// disk when it restarts, and a state image a peer offered is stored as
// one. No snapshot bytes may panic recovery; bytes it accepts leave a
// replica whose next sequence is at or above its execution point and
// that holds no instance below it.
func FuzzRecoverSnapshot(f *testing.F) {
	f.Add(writtenSnapshot(f))
	f.Add([]byte(`{"format":"prever/pbft/snap/v3","execSeq":3,"insts":[{"q":1},{"q":18446744073709551615,"pp":true}]}`))
	f.Add([]byte(`{"format":"prever/pbft/snap/v3","executed":["c"]}`))
	f.Add([]byte(`{"format":"prever/pbft/snap/v2"}`))
	f.Add([]byte("{"))
	f.Fuzz(func(t *testing.T, snap []byte) {
		r, err := newReplica(nil, "p3", []string{"p0", "p1", "p2", "p3"}, 1, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.recoverFromDisk(&wal.Recovery{Snapshot: snap}) != nil {
			return
		}
		if r.nextSeq < r.execSeq {
			t.Fatalf("recovered at %d with next sequence %d", r.execSeq, r.nextSeq)
		}
		for seq := range r.insts {
			if seq < r.execSeq {
				t.Fatalf("recovered at %d holding instance %d", r.execSeq, seq)
			}
		}
	})
}

// writtenSnapshot is the snapshot writeSnapshot stores for a replica at
// 4 in view 1 with a prepared certificate at 5 and a pre-prepare at 6.
func writtenSnapshot(t testing.TB) []byte {
	log, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = log.Close() }()
	r, err := newReplica(nil, "p3", []string{"p0", "p1", "p2", "p3"}, 1, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.log, r.view, r.execSeq = log, 1, 4
	for seq := uint64(5); seq <= 6; seq++ {
		pp := onePrePrepare(seq)
		inst := r.inst(seq)
		inst.digest, inst.req, inst.prePrepared = pp.Digest, pp.Req, true
	}
	r.inst(5).setCert(5, 1)
	r.writeSnapshot(stateImage{ExecSeq: 4, Executed: []string{"c/1", "c/2"}, App: []byte(`{"ops":["a","b"]}`)})
	b, err := log.ReadSnapshot()
	if err != nil || b == nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	return b
}
