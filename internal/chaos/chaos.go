// Package chaos drives randomized fault schedules — crashes, restarts,
// network isolation, duplicate and reordered delivery — against the
// consensus substrates (paxos, pbft, chain) and checks their safety and
// liveness contracts: linearized apply order, exactly-once application,
// and eventual progress after the faults heal.
//
// The schedule is seeded so a failing run can be replayed: every test
// logs its seed and honours the CHAOS_SEED environment variable. The
// replay is best-effort — the action sequence is deterministic in the
// seed, but which node an action hits also depends on cluster timing.
// `make chaos-sim` runs the same schedules on virtual time instead
// (chaos_sim_test.go), hundreds of seeds a minute, where a failing seed
// replays.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"prever/internal/netsim"
)

// Target is one fault-injectable consensus node.
type Target struct {
	ID      string
	Crash   func() error
	Restart func() error
}

// Options bounds an injector.
type Options struct {
	// MaxDown caps how many nodes may be unavailable (crashed or
	// isolated) at once, so a quorum always stays reachable.
	MaxDown int
	// Seed makes the action schedule reproducible.
	Seed int64
}

// Injector performs one random fault action per Step, never exceeding
// MaxDown simultaneously unavailable nodes. Every action is appended to
// an event log for post-mortem of a failing schedule.
type Injector struct {
	net  *netsim.Network
	opts Options

	mu       sync.Mutex
	rng      *rand.Rand
	targets  []Target
	crashed  map[string]bool
	isolated map[string]bool
	step     int
	events   []string
}

// NewInjector builds an injector over the given nodes.
func NewInjector(net *netsim.Network, targets []Target, opts Options) *Injector {
	if opts.MaxDown <= 0 {
		opts.MaxDown = 1
	}
	return &Injector{
		net:      net,
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		targets:  append([]Target(nil), targets...),
		crashed:  make(map[string]bool),
		isolated: make(map[string]bool),
	}
}

// downLocked counts unavailable nodes: crashed or isolated (a node can
// be both; it counts once).
func (in *Injector) downLocked() int {
	n := len(in.crashed)
	for id := range in.isolated {
		if !in.crashed[id] {
			n++
		}
	}
	return n
}

func (in *Injector) pickLocked(ok func(Target) bool) *Target {
	var cands []*Target
	for i := range in.targets {
		if ok(in.targets[i]) {
			cands = append(cands, &in.targets[i])
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[in.rng.Intn(len(cands))]
}

func (in *Injector) logLocked(format string, args ...any) {
	in.events = append(in.events, fmt.Sprintf("%d: %s", in.step, fmt.Sprintf(format, args...)))
}

// applyPartitionLocked pushes the isolation set into the network: each
// isolated node gets its own partition group, everyone else stays
// connected.
func (in *Injector) applyPartitionLocked() {
	if len(in.isolated) == 0 {
		in.net.Heal()
		return
	}
	var groups [][]string
	for id := range in.isolated {
		groups = append(groups, []string{id})
	}
	in.net.Partition(groups...)
}

// Step performs one random fault action: crash, restart, isolate, or
// heal-all-partitions. Actions that would exceed MaxDown are skipped.
func (in *Injector) Step() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.step++
	switch in.rng.Intn(4) {
	case 0: // crash a live node
		t := in.pickLocked(func(t Target) bool {
			if in.crashed[t.ID] {
				return false
			}
			if !in.isolated[t.ID] && in.downLocked() >= in.opts.MaxDown {
				return false
			}
			return true
		})
		if t == nil {
			return
		}
		if err := t.Crash(); err != nil {
			in.logLocked("crash %s failed: %v", t.ID, err)
			return
		}
		in.crashed[t.ID] = true
		in.logLocked("crash %s", t.ID)
	case 1: // restart a crashed node
		t := in.pickLocked(func(t Target) bool { return in.crashed[t.ID] })
		if t == nil {
			return
		}
		if err := t.Restart(); err != nil {
			in.logLocked("restart %s failed: %v", t.ID, err)
			return
		}
		delete(in.crashed, t.ID)
		in.logLocked("restart %s", t.ID)
	case 2: // isolate a connected node
		t := in.pickLocked(func(t Target) bool {
			if in.isolated[t.ID] {
				return false
			}
			if !in.crashed[t.ID] && in.downLocked() >= in.opts.MaxDown {
				return false
			}
			return true
		})
		if t == nil {
			return
		}
		in.isolated[t.ID] = true
		in.applyPartitionLocked()
		in.logLocked("isolate %s", t.ID)
	case 3: // heal all partitions
		if len(in.isolated) == 0 {
			return
		}
		in.isolated = make(map[string]bool)
		in.applyPartitionLocked()
		in.logLocked("heal partitions")
	}
}

// Run steps the schedule every interval until stop closes.
func (in *Injector) Run(stop <-chan struct{}, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			in.Step()
		}
	}
}

// HealAll ends the schedule: partitions are removed and every crashed
// node is restarted (which triggers its catch-up sync).
func (in *Injector) HealAll() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.isolated = make(map[string]bool)
	in.net.Heal()
	for _, t := range in.targets {
		if !in.crashed[t.ID] {
			continue
		}
		if err := t.Restart(); err != nil {
			return fmt.Errorf("chaos: heal restart %s: %w", t.ID, err)
		}
		delete(in.crashed, t.ID)
		in.logLocked("heal restart %s", t.ID)
	}
	return nil
}

// Events returns the action log for schedule post-mortems.
func (in *Injector) Events() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.events...)
}
