//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package chaos

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/synctest"
)

// TestChaosSim runs the chaos schedules on virtual time. Built with
// GOEXPERIMENT=synctest (Go 1.24), each schedule runs inside a synctest
// bubble: its goroutines share a fake clock that jumps ahead whenever
// all of them are blocked, so a schedule that waits seconds in real time
// takes milliseconds and a sweep covers hundreds of seeds. The bubble's
// clock starts at the same instant on every run, so the seed is passed
// in, not read from the clock. synctest.Run also waits for every
// goroutine the schedule started, so a leaked one hangs or fails the run.
// The asynctimerchan=0 line above is needed because synctest.Run refuses
// the asynchronous timer channels a go 1.22 module gets by default.
//
// CHAOS_SIM names the schedules to run, comma-separated (default: all).
// CHAOS_SEEDS lists the seeds, as comma-separated seeds and lo-hi ranges
// (default: 0-449). `make chaos-sim` sets both from SIM and SEEDS, and
// the test ends by listing every failing seed with the command that
// replays it.
func TestChaosSim(t *testing.T) {
	seeds, err := parseSeeds(os.Getenv("CHAOS_SEEDS"))
	if err != nil {
		t.Fatal(err)
	}
	var only []string
	if s := os.Getenv("CHAOS_SIM"); s != "" {
		only = strings.Split(s, ",")
	}
	schedules := []struct {
		name string
		run  func(*testing.T, int64)
	}{
		{"Paxos", chaosPaxos},
		{"PaxosBatched", chaosPaxosBatched},
		{"PBFT", chaosPBFT},
		{"PBFTRecoverFromDisk", chaosPBFTRecoverFromDisk},
		{"Chain", chaosChain},
		{"ShardBatched", chaosShardBatched},
	}
	var failed []string
	for _, s := range schedules {
		if only != nil && !slices.Contains(only, s.name) {
			continue
		}
		for _, seed := range seeds {
			if !t.Run(fmt.Sprintf("%s/%d", s.name, seed), func(t *testing.T) {
				defer func() {
					// synctest.Run panics when every goroutine in the
					// bubble is blocked and no timer is left to fire.
					if p := recover(); p != nil {
						t.Errorf("%v (seed %d)", p, seed)
					}
				}()
				synctest.Run(func() { s.run(t, seed) })
			}) {
				failed = append(failed, fmt.Sprintf("%s seed %d: replay with make chaos-sim SIM=%s SEEDS=%d", s.name, seed, s.name, seed))
			}
		}
	}
	for _, f := range failed {
		t.Log(f)
	}
}

// parseSeeds reads a seed list such as "0-449" or "217,255".
func parseSeeds(spec string) ([]int64, error) {
	if spec == "" {
		spec = "0-449"
	}
	var seeds []int64
	for _, item := range strings.Split(spec, ",") {
		lo, hi, isRange := strings.Cut(item, "-")
		if !isRange {
			hi = lo
		}
		a, err := strconv.ParseInt(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad CHAOS_SEEDS %q: %v", spec, err)
		}
		b, err := strconv.ParseInt(hi, 10, 64)
		if err != nil || b < a {
			return nil, fmt.Errorf("bad CHAOS_SEEDS %q: range %q", spec, item)
		}
		for s := a; s <= b; s++ {
			seeds = append(seeds, s)
		}
	}
	return seeds, nil
}
