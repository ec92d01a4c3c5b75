// Command prever-server runs a PReVer node: a sharded permissioned
// chain (PBFT consensus over the in-process simulated network, mempool
// + batched pipelined submission) fronted by the HTTP wire API
// (internal/api).
//
// Usage:
//
//	prever-server [-addr 127.0.0.1:9473] [-shards N] [-f K] [-timeout D]
//	              [-batch N] [-flush D] [-inflight K] [-mempool-cap N]
//	              [-max-tx-bytes N] [-data DIR] [-snap-every N] [-pprof ADDR]
//
// With -data, every consensus replica journals its protocol state to a
// write-ahead log under DIR (one subdirectory per peer) and snapshots
// every -snap-every executed sequences. A server restarted with the same
// -data recovers the chain from disk: no acked transaction is lost, even
// across a SIGKILL. Without -data the node is in-memory (state dies with
// the process).
//
// With -pprof ADDR (off by default; the PREVER_PPROF environment
// variable supplies it to a server something else launches, such as the
// benchmark's) a second listener serves net/http/pprof under
// /debug/pprof/ and nothing else; the API listener never does.
//
// The server prints exactly one line to stdout once it accepts
// connections:
//
//	prever-server: listening on http://HOST:PORT
//
// With -addr ending in :0 the kernel picks the port and that line is
// how callers (the multi-process harness, the benchmark) discover it.
// The flags are the whole configuration: they are read once, before any
// shard is built, and nothing served over the wire changes them.
// SIGINT/SIGTERM shut down gracefully: in-flight requests finish, the
// mempool fails queued transactions with chain.ErrShardClosed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"prever/internal/api"
	"prever/internal/chain"
	"prever/internal/conf"
	"prever/internal/netsim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "prever-server: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	defaults := conf.Defaults()
	addrFlag := flag.String("addr", "127.0.0.1:9473", "listen address (use :0 for an ephemeral port)")
	shardsFlag := flag.Int("shards", 1, "number of chain shards")
	fFlag := flag.Int("f", 1, "tolerated Byzantine peers per shard (3f+1 peers)")
	timeoutFlag := flag.Duration("timeout", 10*time.Second, "per-transaction commit timeout")
	batchFlag := flag.Int("batch", defaults.BatchSize, "mempool batch size (ops per consensus instance)")
	flushFlag := flag.Duration("flush", defaults.FlushInterval, "partial-batch flush interval")
	inflightFlag := flag.Int("inflight", defaults.MaxInFlight, "pipelined consensus instances")
	capFlag := flag.Int("mempool-cap", defaults.MempoolCap, "mempool admission-control cap")
	maxTxFlag := flag.Int("max-tx-bytes", defaults.MaxTxBytes, "per-transaction size limit on the binary-encoded transaction, not its JSON request body (HTTP 413 beyond)")
	dataFlag := flag.String("data", "", "data directory for crash durability (empty = in-memory)")
	snapEveryFlag := flag.Uint64("snap-every", defaults.SnapshotEvery, "executed sequences between durable snapshots (with -data)")
	pprofFlag := flag.String("pprof", os.Getenv("PREVER_PPROF"), "serve net/http/pprof on this address, its own listener (empty = off; default from $PREVER_PPROF)")
	flag.Parse()

	conf.Update(func(c *conf.Config) {
		c.BatchSize = *batchFlag
		c.FlushInterval = *flushFlag
		c.MaxInFlight = *inflightFlag
		c.MempoolCap = *capFlag
		c.MaxTxBytes = *maxTxFlag
		c.SnapshotEvery = *snapEveryFlag
	})

	if *shardsFlag < 1 {
		return fmt.Errorf("-shards must be >= 1 (got %d)", *shardsFlag)
	}
	simnet := netsim.New(netsim.Config{})
	defer simnet.Close()
	shards := make([]*chain.Shard, *shardsFlag)
	for i := range shards {
		s, err := chain.NewShard(simnet, chain.ShardConfig{
			Name:    fmt.Sprintf("shard%d", i),
			F:       *fFlag,
			Timeout: *timeoutFlag,
			DataDir: *dataFlag,
		})
		if err != nil {
			return err
		}
		shards[i] = s
	}
	sharded, err := chain.NewSharded(shards...)
	if err != nil {
		return err
	}
	defer func() { _ = sharded.Close() }()

	if *pprofFlag != "" {
		pln, err := net.Listen("tcp", *pprofFlag)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		defer func() { _ = pln.Close() }()
		fmt.Fprintf(os.Stderr, "prever-server: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() { _ = http.Serve(pln, pprofMux()) }() // ends when pln closes
	}

	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		return err
	}
	// The contract line: printed only after Listen succeeded, so a
	// parent process reading stdout knows the port is accepting.
	fmt.Printf("prever-server: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: api.NewServer(sharded).Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "prever-server: %s, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		return nil
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// pprofMux serves the profiling endpoints and only those: importing
// net/http/pprof also registers them on http.DefaultServeMux, which
// nothing in this process serves.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
