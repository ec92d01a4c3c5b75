// Command prever-benchmark is the repository's benchmark: six named
// workloads over the served path (api, chain, mempool, pbft, wal) and the
// Figure-2 engine path (core, zk, he, ledger), end-to-end metrics from an
// untraced run and per-layer metrics from a separate traced run. See
// README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"prever/internal/harness"
)

const buildDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:])
	}
	fs := flag.NewFlagSet("prever-benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: all six, one child process each)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", runSeconds, "length of the timed section")
	trace := fs.Int("trace", 0, "1 runs the separate traced run and reports the per-layer metrics")
	outPath := fs.String("out", "", "write the full record (metrics, checks, environment) to this file")
	calibrate := fs.Int("calibrate", 0, "run K full sets and print median, quartiles and spread per metric")
	spec := fs.Bool("spec", false, "print BENCHMARK.json as this program declares it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *spec:
		os.Stdout.Write(benchmarkJSON())
		return 0
	case *calibrate > 0:
		return calibrateCmd(*calibrate, *seed, *seconds, *outPath)
	case *workload == "":
		return allCmd(*seed, *seconds, *trace, *outPath)
	}

	if _, err := os.Stat(filepath.Join("cmd", "prever-server")); err != nil {
		fmt.Fprintln(os.Stderr, "prever-benchmark: run from the repository root (no cmd/prever-server here)")
		return 2
	}
	cfg := runCfg{
		seed:    *seed,
		timed:   time.Duration(*seconds * float64(time.Second)),
		workers: workerCount(),
		workDir: filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())),
		outDir:  filepath.Join("benchmark", "out"),
	}
	cfg.warm = max(cfg.timed/10, 300*time.Millisecond)
	runtime.GOMAXPROCS(cfg.workers)
	// api.Client rides http.DefaultTransport, whose two idle connections
	// per host would make workers beyond the second redial.
	http.DefaultTransport.(*http.Transport).MaxIdleConnsPerHost = cfg.workers + 2
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "prever-benchmark:", err)
		return 1
	}
	defer os.RemoveAll(cfg.workDir)

	r, err := runWorkload(*workload, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prever-benchmark:", err)
		return 1
	}
	if *outPath == "" {
		*outPath = filepath.Join(cfg.outDir, fmt.Sprintf("%s-trace%d.json", *workload, *trace))
	}
	if err := writeJSON(*outPath, r); err != nil {
		fmt.Fprintln(os.Stderr, "prever-benchmark:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, r.describe())
	fmt.Println(r.lastLine())
	if !r.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload once, untraced or traced.
func runWorkload(name string, cfg runCfg, trace bool) (*report, error) {
	if strings.HasPrefix(name, "serve_") {
		if _, ok := serveSpecs[name]; !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		if !cfg.inProcess {
			// Outside the set-up clock: a build is paid once per checkout,
			// not per run, and harness.BuildServer is a no-op when current.
			bin, err := harness.BuildServer(buildDir)
			if err != nil {
				return nil, err
			}
			cfg.serverBin = bin
		}
		if trace {
			return traceServe(name, cfg)
		}
		return runServe(name, cfg)
	}
	switch name {
	case "engine_zk":
		return runZK(cfg, trace)
	case "engine_he":
		return runHE(cfg, trace)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
