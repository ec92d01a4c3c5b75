// Package leaktest fails tests that leave goroutines behind. The
// concurrency analyzers (timerleak, chanclose, lockorder) catch leak
// patterns statically; this is the dynamic backstop for everything they
// cannot see — a forgotten Close, a batcher flush loop outliving its
// pool, a netsim pump wedged on a full inbox.
//
// Usage, first line of a test:
//
//	defer leaktest.Check(t)()
//
// Check snapshots the goroutines alive at call time; the returned
// function (run at the test's end) polls until every goroutine started
// since has exited, and fails the test with the survivors' stacks if
// they outlive the grace period. Polling absorbs benign shutdown races:
// a goroutine mid-return needs a few scheduler passes to leave the
// stack dump.
//
//lint:ignore unreached test-support package: the goroutine-leak check, imported by tests only
package leaktest

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// grace is how long Check waits for stragglers to finish before calling
// them leaks. Long enough for deferred Closes and context cancellations
// to propagate, short enough not to stall the suite on a real leak.
const grace = 2 * time.Second

// ignoredFrames mark goroutines owned by the runtime or shared
// process-wide machinery, never by the test body: the testing harness
// itself, http's keep-alive connection pools (cached across tests by
// design), and the source importer's parse workers.
var ignoredFrames = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*T).Run(",
	"runtime.goexit",
	"runtime.MHeap_Scavenger",
	"net/http.(*persistConn).readLoop",
	"net/http.(*persistConn).writeLoop",
	"net/http.(*Transport).dialConn",
	"os/signal.signal_recv",
	"os/signal.loop",
}

// Check snapshots running goroutines and returns the verification
// function to defer. Failures are reported on t with the leaked stacks.
func Check(t testing.TB) func() {
	before := goroutineIDs()
	return func() {
		t.Helper()
		deadline := time.Now().Add(grace)
		var leaked []string
		for {
			leaked = leaked[:0]
			for id, stack := range goroutineIDs() {
				if _, existed := before[id]; existed || ignored(stack) {
					continue
				}
				leaked = append(leaked, stack)
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		sort.Strings(leaked)
		t.Errorf("leaktest: %d goroutine(s) outlived the test:\n%s",
			len(leaked), strings.Join(leaked, "\n\n"))
	}
}

// goroutineIDs parses a full stack dump into id -> stack text.
func goroutineIDs() map[int64]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[int64]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, _, _ := strings.Cut(g, "\n")
		rest, ok := strings.CutPrefix(header, "goroutine ")
		if !ok {
			continue
		}
		idStr, _, _ := strings.Cut(rest, " ")
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			continue
		}
		out[id] = g
	}
	return out
}

func ignored(stack string) bool {
	for _, f := range ignoredFrames {
		if strings.Contains(stack, f) {
			return true
		}
	}
	return false
}

// Quiesce waits until the process-wide goroutine count drops to at most
// n, for tests that assert a component wound down without pinning exact
// identities. Returns an error after the grace period instead of failing
// a test, so callers can decide severity.
func Quiesce(n int) error {
	deadline := time.Now().Add(grace)
	for {
		if g := runtime.NumGoroutine(); g <= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leaktest: %d goroutines still running, want <= %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
