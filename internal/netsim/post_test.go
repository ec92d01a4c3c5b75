package netsim

import (
	"bytes"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid is the calling goroutine's id, read from its stack header.
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// gatedNode is a handler that records each message's type, and what
// posts record, with the id of the goroutine of its first record; on a
// message of type "gate" it blocks until release closes.
type gatedNode struct {
	mu      sync.Mutex
	log     []string
	gid     uint64
	entered chan struct{}
	release chan struct{}
}

func newGatedNode(t *testing.T, n *Network, id string) *gatedNode {
	t.Helper()
	g := &gatedNode{entered: make(chan struct{}, 1), release: make(chan struct{})}
	if err := n.Register(id, g.handle); err != nil {
		t.Fatal(err)
	}
	return g
}

func (g *gatedNode) handle(m Message) {
	g.record(m.Type)
	if m.Type == "gate" {
		g.entered <- struct{}{}
		<-g.release
	}
}

func (g *gatedNode) record(s string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gid == 0 {
		g.gid = goid()
	}
	g.log = append(g.log, s)
}

func (g *gatedNode) snapshot() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.log...)
}

func (g *gatedNode) waitEntered(t *testing.T) {
	t.Helper()
	tmr := time.NewTimer(2 * time.Second)
	defer tmr.Stop()
	select {
	case <-g.entered:
	case <-tmr.C:
		t.Fatal("gate message never reached the handler")
	}
}

// TestPostRunsOnHandlerInOrder: posts run on the handler goroutine, after
// the messages queued before them and before those queued after, in post
// order.
func TestPostRunsOnHandlerInOrder(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	g := newGatedNode(t, n, "b")
	n.Register("a", func(Message) {})
	n.Send(Message{From: "a", To: "b", Type: "gate"})
	g.waitEntered(t)
	n.Send(Message{From: "a", To: "b", Type: "m1"})
	var gids [2]uint64
	n.Post("b", 0, func() { gids[0] = goid(); g.record("p1") })
	n.Post("b", 0, func() { gids[1] = goid(); g.record("p2") })
	n.Send(Message{From: "a", To: "b", Type: "m2"})
	close(g.release)
	waitFor(t, 2*time.Second, func() bool { return len(g.snapshot()) == 5 })
	if got, want := g.snapshot(), []string{"gate", "m1", "p1", "p2", "m2"}; !slices.Equal(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if gids[0] != g.gid || gids[1] != g.gid {
		t.Fatalf("posts ran on goroutines %v, the handler is %d", gids, g.gid)
	}
}

// TestDelayedPost: a delayed post runs on the handler goroutine once its
// delay has elapsed, and stopping its timer cancels it.
func TestDelayedPost(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	g := newGatedNode(t, n, "b")
	n.Register("a", func(Message) {})
	n.Send(Message{From: "a", To: "b", Type: "m"})
	waitFor(t, 2*time.Second, func() bool { return len(g.snapshot()) == 1 })
	start := time.Now()
	var ranAfter time.Duration
	n.Post("b", 30*time.Millisecond, func() { ranAfter = time.Since(start); g.record("due") })
	if n.Post("b", 10*time.Millisecond, func() { g.record("stopped") }).Stop() == false {
		t.Fatal("a 10ms timer fired before Stop")
	}
	waitFor(t, 2*time.Second, func() bool { return len(g.snapshot()) == 2 })
	time.Sleep(20 * time.Millisecond)
	if got := g.snapshot(); !slices.Equal(got, []string{"m", "due"}) {
		t.Fatalf("ran %v, want [m due]", got)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if ranAfter < 25*time.Millisecond {
		t.Fatalf("a 30ms post ran after %v", ranAfter)
	}
}

// TestPostIntoFullInbox: with Buffer messages queued, a message is dropped
// but a post is queued, and runs.
func TestPostIntoFullInbox(t *testing.T) {
	n := New(Config{Buffer: 2})
	defer n.Close()
	g := newGatedNode(t, n, "b")
	n.Register("a", func(Message) {})
	n.Send(Message{From: "a", To: "b", Type: "gate"})
	g.waitEntered(t)
	n.Send(Message{From: "a", To: "b", Type: "m1"})
	n.Send(Message{From: "a", To: "b", Type: "m2"})
	n.Send(Message{From: "a", To: "b", Type: "m3"}) // inbox full: dropped
	if _, _, dropped := n.Stats(); dropped != 1 {
		t.Fatalf("dropped %d, want the one message past Buffer", dropped)
	}
	posted := make(chan struct{}) // Post must return while the handler is blocked
	go func() {
		n.Post("b", 0, func() { g.record("p") })
		close(posted)
	}()
	select {
	case <-posted:
	case <-time.After(2 * time.Second):
		t.Fatal("Post blocked on a full inbox")
	}
	close(g.release)
	waitFor(t, 2*time.Second, func() bool { return len(g.snapshot()) == 4 })
	if got, want := g.snapshot(), []string{"gate", "m1", "m2", "p"}; !slices.Equal(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
}

// TestCrashDiscardsPosts: a post queued at Crash never runs, not even
// once the node restarts, and neither does a delayed post made before the
// crash that comes due after the restart; a post to a crashed node is
// dropped too.
func TestCrashDiscardsPosts(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	g := newGatedNode(t, n, "b")
	n.Register("a", func(Message) {})
	n.Send(Message{From: "a", To: "b", Type: "gate"})
	g.waitEntered(t)
	n.Post("b", 0, func() { g.record("queued") })
	n.Post("b", 20*time.Millisecond, func() { g.record("timer") }) // fires after the restart
	if err := n.Crash("b"); err != nil {
		t.Fatal(err)
	}
	n.Post("b", 0, func() { g.record("while-down") })
	close(g.release)
	g2 := &gatedNode{entered: make(chan struct{}, 1), release: make(chan struct{})}
	if err := n.Restart("b", g2.handle, nil); err != nil {
		t.Fatal(err)
	}
	n.Post("b", 0, func() { g2.record("after") })
	waitFor(t, 2*time.Second, func() bool { return len(g2.snapshot()) == 1 })
	time.Sleep(40 * time.Millisecond) // past the timer armed before the crash
	if got := g.snapshot(); !slices.Equal(got, []string{"gate"}) {
		t.Fatalf("crashed generation ran %v, want only its gate", got)
	}
	if got := g2.snapshot(); !slices.Equal(got, []string{"after"}) {
		t.Fatalf("restarted generation ran %v, want only the post made after Restart", got)
	}
}

// TestRestartWaitsForCrashedHandler: Restart returns only after the
// crashed generation's blocked handler has returned.
func TestRestartWaitsForCrashedHandler(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	var returned atomic.Bool
	n.Register("b", func(Message) {
		close(entered)
		<-release
		time.Sleep(10 * time.Millisecond)
		returned.Store(true)
	})
	n.Register("a", func(Message) {})
	n.Send(Message{From: "a", To: "b", Type: "t"})
	<-entered
	if err := n.Crash("b"); err != nil {
		t.Fatal(err)
	}
	restarted := make(chan error, 1)
	go func() { restarted <- n.Restart("b", func(Message) {}, nil) }()
	select {
	case err := <-restarted:
		t.Fatalf("Restart returned (%v) while the crashed handler was blocked", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-restarted; err != nil {
		t.Fatal(err)
	}
	if !returned.Load() {
		t.Fatal("Restart returned before the crashed handler did")
	}
	if !n.Alive("b") {
		t.Fatal("restarted node is not alive")
	}
}

// TestRestartInitRunsFirst: Restart's init is the new generation's first
// input, ahead of a message sent and a post made the moment Restart
// returns, and it runs on the new handler goroutine.
func TestRestartInitRunsFirst(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	n.Register("a", func(Message) {})
	newGatedNode(t, n, "b")
	if err := n.Crash("b"); err != nil {
		t.Fatal(err)
	}
	g2 := &gatedNode{entered: make(chan struct{}, 1), release: make(chan struct{})}
	hold := make(chan struct{})
	var gids [2]uint64
	if err := n.Restart("b", g2.handle, func() {
		gids[0] = goid()
		g2.record("init")
		<-hold
	}); err != nil {
		t.Fatal(err)
	}
	n.Send(Message{From: "a", To: "b", Type: "m"})
	n.Post("b", 0, func() { gids[1] = goid(); g2.record("p") })
	close(hold)
	waitFor(t, 2*time.Second, func() bool { return len(g2.snapshot()) == 3 })
	if got, want := g2.snapshot(), []string{"init", "m", "p"}; !slices.Equal(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	if gids[0] != gids[1] {
		t.Fatalf("init ran on goroutine %d, a post on %d", gids[0], gids[1])
	}
}

// TestDeliveryAllocatesNothing: a node's queue reuses its room, so a
// message delivered to a drained queue, or a burst of them, costs no
// allocation (a queue resliced from its front reallocates as the front
// moves: 4 allocations per burst of 8).
func TestDeliveryAllocatesNothing(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	got := make(chan struct{}, 8)
	n.Register("a", func(Message) {})
	n.Register("b", func(Message) { got <- struct{}{} })
	msg := Message{From: "a", To: "b", Type: "t"}
	for _, burst := range []int{1, 8} {
		allocs := testing.AllocsPerRun(500, func() {
			for i := 0; i < burst; i++ {
				n.Send(msg)
			}
			for i := 0; i < burst; i++ {
				<-got
			}
		})
		if allocs != 0 {
			t.Errorf("a burst of %d deliveries allocates %.1f times", burst, allocs)
		}
	}
}
