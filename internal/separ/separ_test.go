package separ

import (
	"fmt"
	"testing"
	"time"

	"prever/internal/workload"
)

func start() time.Time { return time.Date(2022, 3, 28, 0, 0, 0, 0, time.UTC) }

func event(id, worker, platform string, hours int64, ts time.Time) workload.TaskEvent {
	return workload.TaskEvent{ID: id, Worker: worker, Platform: platform, Hours: hours, TS: ts}
}

func newSystem(t testing.TB, useChain bool) *System {
	t.Helper()
	s, err := New(Config{
		Platforms: []string{"uber", "lyft"},
		Budget:    40,
		Period:    "2022-W13",
		UseChain:  useChain,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestRegisterAndBudget(t *testing.T) {
	s := newSystem(t, false)
	if err := s.RegisterWorker("w1"); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterWorker("w1"); err == nil {
		t.Fatal("double registration accepted")
	}
	rem, err := s.Remaining("w1")
	if err != nil || rem != 40 {
		t.Fatalf("remaining = %d, %v", rem, err)
	}
	if _, err := s.Remaining("ghost"); err == nil {
		t.Fatal("unregistered worker has a balance")
	}
}

func TestCrossPlatformRegulation(t *testing.T) {
	s := newSystem(t, false)
	s.RegisterWorker("w1")
	// 25h at uber + 15h at lyft = exactly 40.
	r, err := s.CompleteTask(event("t1", "w1", "uber", 25, start()))
	if err != nil || !r.Accepted {
		t.Fatalf("t1: %+v %v", r, err)
	}
	r, err = s.CompleteTask(event("t2", "w1", "lyft", 15, start().Add(time.Hour)))
	if err != nil || !r.Accepted {
		t.Fatalf("t2: %+v %v", r, err)
	}
	// Hour 41 is rejected on either platform.
	r, err = s.CompleteTask(event("t3", "w1", "uber", 1, start().Add(2*time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Accepted {
		t.Fatal("41st hour accepted")
	}
	// Platforms saw only their own slices.
	uber, _ := s.Platform("uber")
	lyft, _ := s.Platform("lyft")
	if uber.LocalHours("w1", 0, start().Add(3*time.Hour)) != 25 {
		t.Fatal("uber local view wrong")
	}
	if lyft.LocalHours("w1", 0, start().Add(3*time.Hour)) != 15 {
		t.Fatal("lyft local view wrong")
	}
}

func TestUnregisteredWorkerCannotSubmit(t *testing.T) {
	s := newSystem(t, false)
	if _, err := s.CompleteTask(event("t1", "nobody", "uber", 1, start())); err == nil {
		t.Fatal("unregistered worker submitted a task")
	}
}

func TestReplayTraceCounts(t *testing.T) {
	s := newSystem(t, false)
	for i := 0; i < 5; i++ {
		if err := s.RegisterWorker(workload.WorkerID(i)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := workload.NewCrowdwork(workload.CrowdworkConfig{
		Workers: 5, Platforms: 2, Seed: 7, Start: start(),
	})
	if err != nil {
		t.Fatal(err)
	}
	events := g.Generate(60)
	// Remap platform names onto ours.
	for i := range events {
		if events[i].Platform == "platform-0" {
			events[i].Platform = "uber"
		} else {
			events[i].Platform = "lyft"
		}
	}
	var accepted, rejected int
	for _, ev := range events {
		r, err := s.CompleteTask(ev)
		if err != nil {
			t.Fatal(err)
		}
		if r.Accepted {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted+rejected != 60 {
		t.Fatalf("counts: %d + %d != 60", accepted, rejected)
	}
	// With 5 workers, a 40h budget and ~60 tasks averaging 4.5h, some
	// workers must hit the cap.
	if rejected == 0 {
		t.Fatal("no rejections in an over-subscribed trace")
	}
	if accepted == 0 {
		t.Fatal("nothing accepted")
	}
	// Accepted hours per worker never exceed the budget.
	for i := 0; i < 5; i++ {
		w := workload.WorkerID(i)
		var total int64
		for _, pid := range []string{"uber", "lyft"} {
			p, _ := s.Platform(pid)
			total += p.LocalHours(w, 0, start().Add(10*24*time.Hour))
		}
		if total > 40 {
			t.Fatalf("worker %s recorded %d accepted hours", w, total)
		}
	}
}

func TestChainBackedSpentStore(t *testing.T) {
	s := newSystem(t, true)
	s.RegisterWorker("w1")
	r, err := s.CompleteTask(event("t1", "w1", "uber", 3, start()))
	if err != nil || !r.Accepted {
		t.Fatalf("chain-backed task: %+v %v", r, err)
	}
	// Three tokens were spent: three consensus commits on the chain.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && s.Chain().Peers()[0].Height() < 3 {
		time.Sleep(time.Millisecond)
	}
	if h := s.Chain().Peers()[0].Height(); h < 3 {
		t.Fatalf("chain height = %d, want >= 3", h)
	}
	if err := s.AuditChain(); err != nil {
		t.Fatalf("chain audit: %v", err)
	}
	// Regulation still enforced through the chain store.
	s.CompleteTask(event("t2", "w1", "lyft", 37, start().Add(time.Hour)))
	r, _ = s.CompleteTask(event("t3", "w1", "uber", 1, start().Add(2*time.Hour)))
	if r.Accepted {
		t.Fatal("41st hour accepted with chain store")
	}
}

func TestAuditWithoutChainIsNil(t *testing.T) {
	s := newSystem(t, false)
	if err := s.AuditChain(); err != nil {
		t.Fatal(err)
	}
	if s.Chain() != nil {
		t.Fatal("chain should be nil")
	}
}

func BenchmarkSeparTaskMemoryStore(b *testing.B) {
	s, err := New(Config{Platforms: []string{"uber", "lyft"}, Budget: 40})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// One fresh worker per 40 one-hour tasks: issuance cost is amortized
	// into the measurement, as it is in the real system.
	b.ResetTimer()
	worker := ""
	for i := 0; i < b.N; i++ {
		if i%40 == 0 {
			worker = fmt.Sprintf("bench-w%d", i/40)
			if err := s.RegisterWorker(worker); err != nil {
				b.Fatal(err)
			}
		}
		ev := event(fmt.Sprintf("t%d", i), worker, "uber", 1, start())
		if _, err := s.CompleteTask(ev); err != nil {
			b.Fatal(err)
		}
	}
}
