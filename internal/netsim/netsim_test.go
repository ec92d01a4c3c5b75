package netsim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it is true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestBasicDelivery(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var got atomic.Value
	if err := n.Register("b", func(m Message) { got.Store(m) }); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("a", func(Message) {}); err != nil {
		t.Fatal(err)
	}
	n.Send(Message{From: "a", To: "b", Type: "ping", Payload: []byte("x")})
	waitFor(t, time.Second, func() bool { return got.Load() != nil })
	m := got.Load().(Message)
	if m.From != "a" || m.Type != "ping" || string(m.Payload) != "x" {
		t.Fatalf("message = %+v", m)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	if err := n.Register("a", func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("a", func(Message) {}); err == nil {
		t.Fatal("duplicate id accepted")
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	n.Register("a", func(Message) {})
	n.Send(Message{From: "a", To: "ghost", Type: "x"})
	_, _, dropped := n.Stats()
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
}

func TestLatencyApplied(t *testing.T) {
	n := New(Config{Latency: 30 * time.Millisecond})
	defer n.Close()
	var deliveredAt atomic.Value
	n.Register("b", func(Message) { deliveredAt.Store(time.Now()) })
	n.Register("a", func(Message) {})
	start := time.Now()
	n.Send(Message{From: "a", To: "b", Type: "t"})
	waitFor(t, time.Second, func() bool { return deliveredAt.Load() != nil })
	if elapsed := deliveredAt.Load().(time.Time).Sub(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~30ms", elapsed)
	}
}

func TestDropRate(t *testing.T) {
	n := New(Config{DropRate: 1.0, Seed: 42})
	defer n.Close()
	var count atomic.Int64
	n.Register("b", func(Message) { count.Add(1) })
	n.Register("a", func(Message) {})
	for i := 0; i < 20; i++ {
		n.Send(Message{From: "a", To: "b", Type: "t"})
	}
	time.Sleep(20 * time.Millisecond)
	if count.Load() != 0 {
		t.Fatalf("%d messages survived a 100%% drop rate", count.Load())
	}
	_, _, dropped := n.Stats()
	if dropped != 20 {
		t.Fatalf("dropped = %d", dropped)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var count atomic.Int64
	n.Register("a", func(Message) {})
	n.Register("b", func(Message) { count.Add(1) })
	n.Partition([]string{"a"}, []string{"b"})
	n.Send(Message{From: "a", To: "b", Type: "t"})
	time.Sleep(10 * time.Millisecond)
	if count.Load() != 0 {
		t.Fatal("message crossed a partition")
	}
	n.Heal()
	n.Send(Message{From: "a", To: "b", Type: "t"})
	waitFor(t, time.Second, func() bool { return count.Load() == 1 })
}

func TestUnmentionedNodesStayConnected(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var count atomic.Int64
	n.Register("a", func(Message) {})
	n.Register("b", func(Message) { count.Add(1) })
	n.Register("c", func(Message) { count.Add(1) })
	// Partition isolates only "x"; a, b, c all stay in group 0.
	n.Partition([]string{"x"})
	n.Send(Message{From: "a", To: "b", Type: "t"})
	n.Send(Message{From: "a", To: "c", Type: "t"})
	waitFor(t, time.Second, func() bool { return count.Load() == 2 })
}

func TestSequentialHandlerPerNode(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var inHandler atomic.Int64
	var maxConcurrent atomic.Int64
	var done atomic.Int64
	n.Register("b", func(Message) {
		cur := inHandler.Add(1)
		if cur > maxConcurrent.Load() {
			maxConcurrent.Store(cur)
		}
		time.Sleep(time.Millisecond)
		inHandler.Add(-1)
		done.Add(1)
	})
	n.Register("a", func(Message) {})
	for i := 0; i < 10; i++ {
		n.Send(Message{From: "a", To: "b", Type: "t"})
	}
	waitFor(t, 5*time.Second, func() bool { return done.Load() == 10 })
	if maxConcurrent.Load() > 1 {
		t.Fatalf("handler ran %d-way concurrent", maxConcurrent.Load())
	}
}

func TestCloseIsIdempotentAndStopsDelivery(t *testing.T) {
	n := New(Config{})
	n.Register("a", func(Message) {})
	n.Close()
	n.Close() // must not panic
	n.Send(Message{From: "x", To: "a", Type: "t"})
	_, _, dropped := n.Stats()
	if dropped != 1 {
		t.Fatalf("send after close: dropped = %d", dropped)
	}
	if err := n.Register("late", func(Message) {}); err == nil {
		t.Fatal("registration after close accepted")
	}
}

func TestStatsAndReset(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var count atomic.Int64
	n.Register("b", func(Message) { count.Add(1) })
	n.Register("a", func(Message) {})
	n.Send(Message{From: "a", To: "b", Type: "t"})
	waitFor(t, time.Second, func() bool { return count.Load() == 1 })
	sent, delivered, _ := n.Stats()
	if sent != 1 || delivered != 1 {
		t.Fatalf("stats = %d sent, %d delivered", sent, delivered)
	}
	n.ResetStats()
	sent, delivered, dropped := n.Stats()
	if sent+delivered+dropped != 0 {
		t.Fatal("reset did not zero stats")
	}
}

func TestManyNodesStress(t *testing.T) {
	n := New(Config{Jitter: time.Millisecond, Seed: 7})
	defer n.Close()
	const nodes = 10
	var total atomic.Int64
	var wg sync.WaitGroup
	ids := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		ids[i] = string(rune('a' + i))
		n.Register(ids[i], func(Message) { total.Add(1) })
	}
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				for _, to := range ids {
					if to != id {
						n.Send(Message{From: id, To: to, Type: "gossip"})
					}
				}
			}
		}(ids[i])
	}
	wg.Wait()
	want := int64(nodes * 20 * (nodes - 1))
	waitFor(t, 5*time.Second, func() bool { return total.Load() == want })
}
