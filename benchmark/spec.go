package main

import (
	"encoding/json"
	"math"
)

// This file is the benchmark's declaration: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics.
// BENCHMARK.json at the repository root is generated from it
// (`prever-benchmark -spec`), and bench_test.go fails when the two differ.

// runSeconds is the timed section the driver asks for (BENCHMARK.json
// run_seconds): as long as the driver's 4 + 22 x 4 runs allow in its 57
// minutes, with a margin.
const runSeconds = 22

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloads are the ones BENCHMARK.json declares and the driver gates on:
// the four closed loops, which keep every processor busy and can therefore
// be put at the reference host's speed (yardstick.go).
var workloads = []workloadDef{
	{"serve_batch", "closed loop of /submit-batch x64 on an in-memory server: the batched, pipelined write path (api, mempool, pbft, chain); wal and all crypto bypassed"},
	{"serve_readwrite", "closed loop, writers /submit-batch x16 and readers GET /get, zipfian 0.99 over 10k preloaded keys: reads contend with apply on the peer lock, hot keys share a lane"},
	{"engine_zk", "library Figure-2 flow: SubmitZKBatch x16 over proof-carrying updates (8 groups, bound 40, MODP2048) against fresh managers: zk, group, commit work; no consensus, no HTTP"},
	{"engine_he", "library: C callers, SubmitEncryptedBatch x16 of a seeded Crowdwork trace under a 168 h window bound of 40 with a 1024-bit Paillier helper: he and mpc work; zk bypassed"},
}

// extraWorkloads run like the others (`--workload NAME`, the all-workloads
// command, the smoke test) but are not in BENCHMARK.json: they are open
// loops at a fraction of the machine, whose latency and CPU time follow
// the shared host's weather in a way no yardstick removes (README.md), so
// the driver cannot gate on them here.
var extraWorkloads = []workloadDef{
	{"serve_single", "open loop, fixed 200 tx/s of single POST /submit: the latency path, batches of ~1, so flush interval and PBFT phases dominate; batching gains must not show here"},
	{"serve_durable", "open loop, fixed 2000 tx/s as /submit-batch x64 with -data, then SIGKILL and restart: the only workload where wal (fsync, disk bytes, recovery) does the work"},
}

func allWorkloads() []workloadDef {
	return append(append([]workloadDef(nil), workloads...), extraWorkloads...)
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd metrics are reported by every workload on the untraced run and
// are never zero. Bounds come from the calibration in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"goodput_ops_s", "ops/s", higher, 0.25},
	{"latency_p50_ms", "ms", lower, 0.25},
	{"cpu_us_per_op", "us", lower, 0.25},
}

// perLayer metrics are reported by every workload on the traced run; a
// layer the workload bypasses reports 0. The `e2e.` group holds what a
// user sees but only some workloads can report (the driver's contract wants
// every bounded metric from every workload), so it carries no bound.
var perLayer = []metricDef{
	{"e2e.failed_frac", "ratio", lower, 0},
	{"e2e.latency_p95_ms", "ms", lower, 0},
	{"e2e.rss_peak_mb", "MB", lower, 0},
	{"e2e.read_ops_s", "ops/s", higher, 0},
	{"e2e.read_p95_ms", "ms", lower, 0},
	{"e2e.disk_bytes_per_op", "B", lower, 0},
	{"e2e.recover_s", "s", lower, 0},
	{"e2e.goodput_raw_ops_s", "ops/s", higher, 0},
	{"e2e.latency_p50_raw_ms", "ms", lower, 0},
	{"e2e.cpu_raw_us_per_op", "us", lower, 0},

	{"host.slowdown_x", "x", lower, 0},

	{"loadgen.late_p95_ms", "ms", lower, 0},
	{"loadgen.cpu_frac", "ratio", lower, 0},
	{"loadgen.latency_p99_ms", "ms", lower, 0},
	{"loadgen.latency_max_ms", "ms", lower, 0},

	{"api.wire_us_per_op", "us", lower, 0},
	{"api.http_self_us_per_op", "us", lower, 0},
	{"api.req_bytes_per_op", "B", lower, 0},
	{"api.resp_bytes_per_op", "B", lower, 0},
	{"api.get_us", "us", lower, 0},

	{"mempool.batch_mean_ops", "count", higher, 0},
	{"mempool.batches_per_s", "1/s", lower, 0},
	{"mempool.batch_max_ops", "count", higher, 0},
	{"mempool.rejected_frac", "ratio", lower, 0},
	{"mempool.dup_frac", "ratio", lower, 0},
	{"mempool.add_resolve_us_per_op", "us", lower, 0},

	{"chain.commit_mean_ms", "ms", lower, 0},
	{"chain.self_us_per_op", "us", lower, 0},
	{"chain.block_txs_mean", "count", higher, 0},
	{"chain.verify_blocks_us_per_tx", "us", lower, 0},
	{"chain.prove_tx_us", "us", lower, 0},
	{"chain.rss_bytes_per_op", "B", lower, 0},

	{"pbft.span_us_per_op", "us", lower, 0},
	{"pbft.batch64_commit_ms_p50", "ms", lower, 0},
	{"pbft.batch1_commit_ms_p50", "ms", lower, 0},
	{"pbft.msgs_per_op", "count", lower, 0},
	{"pbft.view_max", "count", lower, 0},

	{"paxos.batch64_commit_ms_p50", "ms", lower, 0},
	{"paxos.msgs_per_op", "count", lower, 0},

	{"netsim.sent_per_op", "count", lower, 0},
	{"netsim.dropped", "count", lower, 0},

	{"wal.append_us_p50", "us", lower, 0},
	{"wal.sync_ms_p50", "ms", lower, 0},
	{"wal.durable_slowdown_x", "x", lower, 0},
	{"wal.disk_bytes_per_user_byte", "ratio", lower, 0},
	{"wal.segments", "count", lower, 0},
	{"wal.reopen_ms", "ms", lower, 0},

	{"core.zk_ms_per_update", "ms", lower, 0},
	{"core.zk_self_ms_per_update", "ms", lower, 0},
	{"core.zk_batch_verified_frac", "ratio", higher, 0},
	{"core.he_ms_per_update", "ms", lower, 0},
	{"core.he_self_ms_per_update", "ms", lower, 0},
	{"core.plain_us_per_update", "us", lower, 0},
	{"core.he_overhead_x", "x", lower, 0},
	{"core.zk_overhead_x", "x", lower, 0},

	{"zk.verify_bound_batch_ms_per_proof", "ms", lower, 0},
	{"zk.verify_bound_seq_ms_per_proof", "ms", lower, 0},
	{"zk.batch_speedup_x", "x", higher, 0},
	{"zk.bisect_ms", "ms", lower, 0},
	{"zk.prove_bound_ms", "ms", lower, 0},
	{"zk.proof_bytes", "B", lower, 0},

	{"group.multiexp_us_per_term", "us", lower, 0},
	{"group.fixedbase_exp_us", "us", lower, 0},
	{"group.contains_us", "us", lower, 0},
	{"commit.commit_us", "us", lower, 0},

	{"he.encrypt_ms", "ms", lower, 0},
	{"he.add_us", "us", lower, 0},
	{"he.decrypt_ms", "ms", lower, 0},
	{"he.ciphertext_bytes", "B", lower, 0},
	{"mpc.sign_oracle_ms", "ms", lower, 0},
	{"mpc.check_bound_ms", "ms", lower, 0},

	{"ledger.append_us", "us", lower, 0},
	{"ledger.prove_incl_us", "us", lower, 0},
	{"ledger.audit_us_per_entry", "us", lower, 0},
	{"merkle.root_us_per_leaf", "us", lower, 0},

	{"trace.top_span_ms", "ms", lower, 0},
	{"trace.budget_sum_frac", "ratio", higher, 0},
	{"trace.overhead_frac", "ratio", lower, 0},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// fill returns the values of defs in report shape: every declared name is
// present with its declared unit, and names the run did not set read 0.
func fill(defs []metricDef, vals map[string]float64) metrics {
	out := make(metrics, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out
}

// benchmarkJSON renders the declaration in the shape the driver reads.
func benchmarkJSON() []byte {
	// metricDef omits a zero bound, which is exactly the per-layer shape.
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static data; cannot fail
	}
	return append(b, '\n')
}
