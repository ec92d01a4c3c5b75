package netsim

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestPartitionAppliedToInFlightMessages is the regression test for the
// partition-bypass bug: Send used to evaluate the partition only at send
// time, so a message already in its delay window crossed a partition
// created while it was in flight. deliver must re-check.
func TestPartitionAppliedToInFlightMessages(t *testing.T) {
	n := New(Config{Latency: 50 * time.Millisecond})
	defer n.Close()
	var count atomic.Int64
	n.Register("a", func(Message) {})
	n.Register("b", func(Message) { count.Add(1) })
	n.Send(Message{From: "a", To: "b", Type: "t"})
	// Partition lands while the message is still in its delay window.
	n.Partition([]string{"a"}, []string{"b"})
	time.Sleep(120 * time.Millisecond)
	if count.Load() != 0 {
		t.Fatal("in-flight message crossed a partition created after send")
	}
	_, _, dropped := n.Stats()
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
}

func TestCrashStopsDelivery(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var count atomic.Int64
	n.Register("a", func(Message) {})
	n.Register("b", func(Message) { count.Add(1) })
	n.Send(Message{From: "a", To: "b", Type: "t"})
	waitFor(t, time.Second, func() bool { return count.Load() == 1 })
	if err := n.Crash("b"); err != nil {
		t.Fatal(err)
	}
	if n.Alive("b") {
		t.Fatal("crashed node reported alive")
	}
	n.Send(Message{From: "a", To: "b", Type: "t"})
	time.Sleep(10 * time.Millisecond)
	if count.Load() != 1 {
		t.Fatal("crashed node received a message")
	}
	// A crashed node cannot send either.
	n.Register("c", func(Message) { count.Add(1) })
	n.Send(Message{From: "b", To: "c", Type: "t"})
	time.Sleep(10 * time.Millisecond)
	if count.Load() != 1 {
		t.Fatal("crashed node sent a message")
	}
}

func TestCrashDiscardsInFlightMessages(t *testing.T) {
	n := New(Config{Latency: 40 * time.Millisecond})
	defer n.Close()
	var count atomic.Int64
	n.Register("a", func(Message) {})
	n.Register("b", func(Message) { count.Add(1) })
	n.Send(Message{From: "a", To: "b", Type: "t"})
	if err := n.Crash("b"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if count.Load() != 0 {
		t.Fatal("message delivered to a node that crashed while it was in flight")
	}
}

func TestRestartReattachesWithNewHandler(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var old, fresh atomic.Int64
	n.Register("a", func(Message) {})
	n.Register("b", func(Message) { old.Add(1) })
	if err := n.Restart("b", func(Message) {}, nil); err == nil {
		t.Fatal("restart of a live node accepted")
	}
	if err := n.Crash("b"); err != nil {
		t.Fatal(err)
	}
	if err := n.Crash("b"); err == nil {
		t.Fatal("double crash accepted")
	}
	if err := n.Restart("b", func(Message) { fresh.Add(1) }, nil); err != nil {
		t.Fatal(err)
	}
	if !n.Alive("b") {
		t.Fatal("restarted node not alive")
	}
	n.Send(Message{From: "a", To: "b", Type: "t"})
	waitFor(t, time.Second, func() bool { return fresh.Load() == 1 })
	if old.Load() != 0 {
		t.Fatal("old handler ran after restart")
	}
	if err := n.Crash("ghost"); err == nil {
		t.Fatal("crash of unknown node accepted")
	}
	if err := n.Restart("ghost", func(Message) {}, nil); err == nil {
		t.Fatal("restart of unknown node accepted")
	}
}

func TestDuplicateDelivery(t *testing.T) {
	n := New(Config{DuplicateRate: 1.0, Seed: 11})
	defer n.Close()
	var count atomic.Int64
	n.Register("a", func(Message) {})
	n.Register("b", func(Message) { count.Add(1) })
	for i := 0; i < 5; i++ {
		n.Send(Message{From: "a", To: "b", Type: "t"})
	}
	waitFor(t, time.Second, func() bool { return count.Load() == 10 })
	sent, delivered, _ := n.Stats()
	if sent != 5 || delivered != 10 {
		t.Fatalf("stats = %d sent, %d delivered; want 5, 10", sent, delivered)
	}
}

func TestReorderingDelaysSomeMessages(t *testing.T) {
	n := New(Config{ReorderRate: 0.5, ReorderDelay: 20 * time.Millisecond, Seed: 5})
	defer n.Close()
	order := make(chan int, 64)
	n.Register("a", func(Message) {})
	n.Register("b", func(m Message) { order <- int(m.Payload[0]) })
	const msgs = 32
	for i := 0; i < msgs; i++ {
		n.Send(Message{From: "a", To: "b", Type: "t", Payload: []byte{byte(i)}})
	}
	inversions := 0
	prev := -1
	for i := 0; i < msgs; i++ {
		select {
		case got := <-order:
			if got < prev {
				inversions++
			}
			prev = got
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d/%d messages arrived", i, msgs)
		}
	}
	if inversions == 0 {
		t.Fatal("no reordering observed with ReorderRate=0.5")
	}
}

func TestSeededFaultsAreDeterministic(t *testing.T) {
	run := func() (delivered int64) {
		n := New(Config{DropRate: 0.3, DuplicateRate: 0.2, Seed: 1234})
		defer n.Close()
		var count atomic.Int64
		n.Register("a", func(Message) {})
		n.Register("b", func(m Message) { count.Add(1) })
		for i := 0; i < 50; i++ {
			n.Send(Message{From: "a", To: "b", Type: "t"})
		}
		// "Delivered" counts inbox enqueues; the handler runs after, so
		// wait for it to catch up before reading its count.
		deadline := time.Now().Add(time.Second)
		for time.Now().Before(deadline) {
			s, d, dr := n.Stats()
			if d+dr >= s && count.Load() == d {
				break
			}
			time.Sleep(time.Millisecond)
		}
		return count.Load()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different fault schedules: %d vs %d deliveries", a, b)
	}
}
