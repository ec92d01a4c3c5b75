package harness

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"prever/internal/api"
	"prever/internal/chain"
	"prever/internal/leaktest"
)

// TestMultiProcessCluster is the deployable-artifact test: build the
// real server binary, boot three OS processes on loopback TCP, drive
// each through the wire client, and assert every process's chain
// converges clean. It proves the pieces the in-process suite cannot:
// flag parsing, the stdout address contract, JSON over a real socket,
// and graceful SIGTERM shutdown.
func TestMultiProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harness is not -short")
	}
	// The processes are external, but each Proc owns in-process goroutines
	// (stdout scanner, cmd.Wait); Stop must reap them all.
	t.Cleanup(leaktest.Check(t))
	bin, err := BuildServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	cluster, err := StartCluster(bin, n, "-flush", "1ms")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Stop() })
	if len(cluster.Procs) != n {
		t.Fatalf("started %d processes, want %d", len(cluster.Procs), n)
	}

	// Each process is an independent chain; drive all three and check
	// they answer independently.
	const perProc = 10
	for pi, proc := range cluster.Procs {
		client := proc.Client()
		// Singles.
		for i := 0; i < perProc/2; i++ {
			id, err := client.Submit(api.Tx{
				Kind:  api.KindPut,
				Key:   fmt.Sprintf("proc%d/key%d", pi, i),
				Value: []byte(fmt.Sprintf("v%d", i)),
			})
			if err != nil {
				t.Fatalf("proc %d submit %d: %v", pi, i, err)
			}
			if id == "" {
				t.Fatalf("proc %d submit %d: empty tx id", pi, i)
			}
		}
		// One batch for the rest.
		txs := make([]api.Tx, perProc/2)
		for i := range txs {
			txs[i] = api.Tx{
				Kind:  api.KindPut,
				Key:   fmt.Sprintf("proc%d/batch%d", pi, i),
				Value: []byte("b"),
			}
		}
		results, err := client.SubmitBatch(txs)
		if err != nil {
			t.Fatalf("proc %d batch: %v", pi, err)
		}
		for i, r := range results {
			if r.Code != "" {
				t.Fatalf("proc %d batch tx %d: %s %s", pi, i, r.Code, r.Error)
			}
		}
	}

	// The typed sentinels survive the process boundary: resubmitting a
	// committed ID yields chain.ErrDuplicate out of the remote client.
	c0 := cluster.Procs[0].Client()
	dup := api.Tx{ID: "harness-dup", Kind: api.KindPut, Key: "dup", Value: []byte("v")}
	if _, err := c0.Submit(dup); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Submit(dup); !errors.Is(err, chain.ErrDuplicate) {
		t.Fatalf("remote duplicate err = %v, want chain.ErrDuplicate", err)
	}

	// Every process's peers converge on identical verified chains, and
	// the processes stayed isolated: each one's stats count only its own
	// submissions.
	for pi, proc := range cluster.Procs {
		audit, err := proc.WaitConverged(10 * time.Second)
		if err != nil {
			t.Fatalf("proc %d: %v", pi, err)
		}
		for _, sh := range audit.Shards {
			if len(sh.Heights) != 4 {
				t.Fatalf("proc %d shard %s has %d peers, want 4 (f=1)", pi, sh.Name, len(sh.Heights))
			}
		}
		st, err := proc.Client().Stats()
		if err != nil {
			t.Fatalf("proc %d stats: %v", pi, err)
		}
		want := int64(perProc)
		if pi == 0 {
			want += 2 // the duplicate probe pair
		}
		if st.Total.Submitted != want {
			t.Fatalf("proc %d submitted = %d, want %d (processes must be isolated)", pi, st.Total.Submitted, want)
		}
		if st.Total.Accepted != want-st.Total.Duplicates {
			t.Fatalf("proc %d accepted = %d, duplicates = %d, submitted = %d",
				pi, st.Total.Accepted, st.Total.Duplicates, st.Total.Submitted)
		}
	}

	// Graceful shutdown: SIGTERM is the server's clean exit path.
	if err := cluster.Stop(); err != nil {
		t.Fatalf("graceful stop: %v", err)
	}
}

// TestKillRecoverFromDisk is the durability proof at process
// granularity: boot a server with -data, submit acked transactions,
// SIGKILL it mid-load (no shutdown hook runs — only fsync survives),
// restart from the same directory, and read every acked key back. This
// is the crash a power cut delivers; anything the server acked before
// the kill must still be there.
func TestKillRecoverFromDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harness is not -short")
	}
	t.Cleanup(leaktest.Check(t))
	bin, err := BuildServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	args := []string{"-data", dataDir, "-flush", "1ms", "-snap-every", "8"}
	proc, err := Start(bin, args...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proc.Kill() })
	if err := proc.WaitHealthy(startTimeout); err != nil {
		t.Fatal(err)
	}
	client := proc.Client()

	// Submit until the concurrent SIGKILL lands: every successful Submit
	// is an ack, and the kill races the tail of the load.
	const killAfter = 25
	killed := make(chan struct{})
	acked := make(map[string]string)
	var ackedTx api.Tx // one acked write, under the id the server gave it
	for i := 0; ; i++ {
		key := fmt.Sprintf("durable/key%d", i)
		val := fmt.Sprintf("v%d", i)
		id, err := client.Submit(api.Tx{Kind: api.KindPut, Key: key, Value: []byte(val)})
		if err != nil {
			break // the kill landed mid-load
		}
		acked[key] = val
		ackedTx = api.Tx{ID: id, Kind: api.KindPut, Key: key, Value: []byte(val)}
		if i == killAfter {
			go func() { defer close(killed); _ = proc.Kill() }()
		}
		if i > killAfter+100000 {
			t.Fatal("SIGKILL never took the server down")
		}
	}
	<-killed
	if len(acked) <= killAfter {
		t.Fatalf("only %d acks before the kill landed, want > %d", len(acked), killAfter)
	}

	// Restart from the same directory. The replicas replay their WALs;
	// fresh traffic kicks consensus past any batch that was committed
	// but not yet executed everywhere at kill time.
	proc2, err := Start(bin, args...)
	if err != nil {
		t.Fatalf("restart from %s: %v", dataDir, err)
	}
	t.Cleanup(func() { _ = proc2.Stop() })
	if err := proc2.WaitHealthy(startTimeout); err != nil {
		t.Fatal(err)
	}
	c2 := proc2.Client()
	if _, err := c2.Submit(api.Tx{Kind: api.KindPut, Key: "durable/post-restart", Value: []byte("p")}); err != nil {
		t.Fatalf("post-restart submit: %v", err)
	}
	audit, err := proc2.WaitConverged(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Clean || !audit.Converged {
		t.Fatalf("post-restart audit not clean/converged: %+v", audit)
	}

	// No acked transaction is lost.
	for key, want := range acked {
		got, found, err := c2.Get(key)
		if err != nil {
			t.Fatalf("get %s after recovery: %v", key, err)
		}
		if !found {
			t.Fatalf("acked key %s lost across SIGKILL (had %d acked keys)", key, len(acked))
		}
		if string(got) != want {
			t.Fatalf("acked key %s = %q after recovery, want %q", key, got, want)
		}
	}

	// Exactly-once outlives the process: a client that never saw its ack
	// and retries under the same id after the restart is told "already
	// committed" (409), from the chain the replicas recovered.
	if _, err := c2.Submit(ackedTx); !api.IsDuplicate(err) {
		t.Fatalf("resubmitting acked tx %s after recovery: err = %v, want a duplicate", ackedTx.ID, err)
	}
}

// TestServerFlags pins prever-server's flag set, so a new knob arrives as
// a diff of this list.
func TestServerFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harness is not -short")
	}
	bin, err := BuildServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	usage, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("prever-server -h: %v\n%s", err, usage)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllSubmatch(usage, -1) {
		got = append(got, string(m[1]))
	}
	// flag prints its usage in lexical order.
	want := strings.Fields("addr batch data f flush inflight max-tx-bytes mempool-cap pprof shards snap-every timeout")
	if !slices.Equal(got, want) {
		t.Fatalf("prever-server flags:\n got %v\nwant %v", got, want)
	}
}

// TestStartTimesOutOnSilentServer: a process that never prints its
// "listening on" line must trip Start's deadline (a stoppable timer
// since the timerleak fix) and be reaped, not hang the harness.
func TestStartTimesOutOnSilentServer(t *testing.T) {
	t.Cleanup(leaktest.Check(t))
	script := filepath.Join(t.TempDir(), "silent.sh")
	// exec so the sleep replaces the shell: Stop's SIGTERM must reach the
	// process holding the stdout pipe, or reaping blocks on pipe EOF.
	if err := os.WriteFile(script, []byte("#!/bin/sh\nexec sleep 60\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	old := startTimeout
	startTimeout = 300 * time.Millisecond
	defer func() { startTimeout = old }()
	if _, err := Start(script); err == nil || !strings.Contains(err.Error(), "did not print its address") {
		t.Fatalf("Start(silent server) = %v, want start-timeout error", err)
	}
}
