// Command prever-bench prints the PReVer experiment tables (E1–E11, see
// DESIGN.md §3) recorded in EXPERIMENTS.md.
//
// Usage:
//
//	prever-bench [-scale quick|full] [-only E4]
//
// Served-path numbers (throughput and latency through prever-server) come
// from the repository benchmark, not from here: see benchmark/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"prever/internal/bench"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	onlyFlag := flag.String("only", "", "run a single experiment (E1, E1b, E2..E8, E10, E11)")
	flag.Parse()

	var scale bench.Scale
	switch strings.ToLower(*scaleFlag) {
	case "quick":
		scale = bench.Quick
	case "full":
		scale = bench.Full
	default:
		fmt.Fprintf(os.Stderr, "prever-bench: unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}

	experiments := map[string]func(bench.Scale) (*bench.Table, error){
		"E1":  bench.E1YCSB,
		"E1B": bench.E1TPCC,
		"E2":  bench.E2Verify,
		"E3":  bench.E3Federated,
		"E4":  bench.E4Consensus,
		"E5":  bench.E5Integrity,
		"E6":  bench.E6PIR,
		"E7":  bench.E7DP,
		"E8":  bench.E8Adversary,
		"E10": bench.E10Recovery,
		"E11": bench.E11Crypto,
	}

	start := time.Now()
	if *onlyFlag != "" {
		fn, ok := experiments[strings.ToUpper(*onlyFlag)]
		if !ok {
			fmt.Fprintf(os.Stderr, "prever-bench: unknown experiment %q\n", *onlyFlag)
			os.Exit(2)
		}
		tbl, err := fn(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prever-bench: %v\n", err)
			os.Exit(1)
		}
		tbl.Fprint(os.Stdout)
	} else if err := bench.Run(os.Stdout, scale); err != nil {
		fmt.Fprintf(os.Stderr, "prever-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("total: %s\n", time.Since(start).Round(time.Millisecond))
}
