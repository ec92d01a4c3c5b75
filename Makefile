GO ?= go

.PHONY: build test check race bench bench-check deps-check vet fmt fmt-check lint chaos chaos-sim chaos-regress fuzz-smoke heap-smoke cost-smoke serve-smoke serve-smoke-durable profile-serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the project-specific analyzers (internal/lint): lockheld,
# cryptorand, consttime, deferloop, errignored, walorder, lockorder,
# timerleak, atomicmix, chanclose, unreached. See DESIGN.md §5 for the
# analyzer -> invariant table.
lint:
	$(GO) run ./cmd/prever-lint ./...

# deps-check keeps the engines free of the served stack: internal/core
# (and so the root prever package's engines) must not reach consensus, the
# mempool, the WAL or internal/conf, directly or transitively.
# It also keeps Paxos the in-memory comparator: internal/paxos must not
# reach the WAL. And it keeps configuration a value a shard is built
# with: no package of this module, tests included, imports internal/conf,
# whose shims only the benchmark module still calls.
deps-check:
	@bad="$$($(GO) list -deps ./internal/core | grep -E '^prever/internal/(chain|pbft|mempool|wal|conf)$$' || true)"; \
	if [ -n "$$bad" ]; then \
		echo "deps-check: internal/core reaches:"; echo "$$bad"; exit 1; \
	fi
	@bad="$$($(GO) list -deps ./internal/paxos | grep -E '^prever/internal/wal$$' || true)"; \
	if [ -n "$$bad" ]; then \
		echo "deps-check: internal/paxos reaches:"; echo "$$bad"; exit 1; \
	fi
	@bad="$$($(GO) list -f '{{.ImportPath}} {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./... | grep -E ' prever/internal/conf( |$$)' | cut -d' ' -f1 || true)"; \
	if [ -n "$$bad" ]; then \
		echo "deps-check: these packages import prever/internal/conf:"; echo "$$bad"; exit 1; \
	fi

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; \
	fi

race:
	$(GO) test -race ./...

# chaos runs the randomized fault-injection suite (internal/chaos) under
# the race detector. Each test logs its schedule seed; replay a failing
# run with CHAOS_SEED=<seed> make chaos.
chaos:
	$(GO) test -race -count=1 -v ./internal/chaos

# chaos-sim runs the same schedules on virtual time, one per seed of
# SEEDS (seeds and lo-hi ranges, comma-separated), for the schedules
# named in SIM (comma-separated; empty means all six). GOEXPERIMENT=synctest
# builds internal/chaos/chaos_sim_test.go, which runs each schedule in a
# testing/synctest bubble, so a schedule that waits seconds takes
# milliseconds. On one CPU a seed names one interleaving, so a failing
# seed replays; the run ends by listing every failing seed with the
# command that replays it, e.g.
#   make chaos-sim SIM=PBFTRecoverFromDisk SEEDS=116
SIM ?=
SEEDS ?= 0-449
chaos-sim:
	GOEXPERIMENT=synctest CHAOS_SIM=$(SIM) CHAOS_SEEDS=$(SEEDS) $(GO) test -cpu 1 -count=1 -timeout 60m -run '^TestChaosSim$$' ./internal/chaos

# chaos-regress replays the durable-recovery seeds 217 and 255 on
# virtual time. Their replicas never converged while each up-to-date
# peer offered an image of its own tip, which no two peers shared; with
# images taken at multiples of SnapshotEvery both must converge.
chaos-regress:
	@$(MAKE) --no-print-directory chaos-sim SIM=PBFTRecoverFromDisk SEEDS=217,255

# fuzz-smoke runs every Fuzz* target of the root module for 10 s (plain
# `go test` only replays a target's seed corpus). Go fuzzes one target of
# one package per invocation, so the targets are found by name. A crasher
# is written to the package's testdata/fuzz/<Target>/ — commit it with
# the fix, it becomes a seed.
fuzz-smoke:
	@set -e; \
	grep -r --include='*_test.go' -o '^func Fuzz[A-Za-z0-9_]*' cmd internal *_test.go | \
	while IFS=: read -r file fn; do \
		echo "fuzz-smoke: $${fn#func } in ./$$(dirname $$file)"; \
		$(GO) test -run '^$$' -fuzz "^$${fn#func }\$$" -fuzztime 10s ./$$(dirname $$file); \
	done

# heap-smoke is the gate on what history costs in memory: a chain peer
# retains per applied transaction its encoded bytes plus a few bytes
# (~0.02 heap objects), a four-replica shard retains at most 3x one
# peer's block bodies over 1000 committed 64-tx batches (every peer's
# body is the committed frame; ~2.6x), and the mempool retains nothing
# per resolved op. `make race` skips all three tests: the detector's
# shadow allocations would be counted as theirs.
heap-smoke:
	$(GO) test -count=1 -run '^(TestPeerRetainedPerTx|TestShardRetainedPerBodyByte|TestPoolRetainsNothingPerResolvedOp)$$' -v ./internal/chain ./internal/mempool

# cost-smoke runs the cost gates: ratios of two timings taken in one
# test, the median over back-to-back pairs of thread CPU time
# (internal/costtest), so they hold on a host of any speed. On a
# 1024-bit key, mpc.CheckBound on one input is at most 1.25x the
# Encrypt(0) + Decrypt the protocol cannot avoid; at MODP2048, group's
# mulMod (Barrett, three multiplications) is at most 0.8x the Mul +
# QuoRem it replaced, FixedBase.Exp (a Lim–Lee comb) at most 0.75x the
# 4-bit window exponentiation it replaced, and MultiExp (a Bos–Coster
# chain) costs at most 11 000 mulMods on a 288-term bit fold (two of
# the zk verifier's 144-term groups) and at most 0.6x the per-term Exp
# product on the exponent vectors that make every step of the chain a
# division; zk's VerifyOpeningBatch of 64 openings costs at most a third
# of 64 sequential VerifyOpening calls, and its VerifyBoundBatch of one
# engine group (8 bound-40 proofs, three base-4 digits each) at most
# 0.60x that 288-term fold; core.PlainManager's windowed-SUM Submit against
# 8 192 rows costs at most 2x the same Submit against 512 (its aggregate
# probes an index). `make race` skips all seven: a timing ratio under the detector measures
# the detector. -p 1: one package at a time, so no gate is timed while
# another's test binary compiles or runs.
cost-smoke:
	$(GO) test -p 1 -count=1 -run '^(TestCheckBoundCost|TestMulModCost|TestFixedBaseCost|TestMultiExpCost|TestVerifyOpeningBatchSpeedup|TestBoundBatchCost|TestPlainCheckCost)$$' ./internal/mpc ./internal/group ./internal/zk ./internal/core

# serve-smoke is the deployment smoke test, run by the repository
# benchmark's open-loop workload (benchmark/README.md): build the real
# prever-server, drive single-op /submit on a schedule for 2 seconds, and
# exit non-zero unless /audit is clean and converged, every acked write
# reads back, and /stats accounts for every op.
serve-smoke:
	bash benchmark/run.sh --workload serve_single --seconds 2 --trace 0

# serve-smoke-durable is the crash-durability smoke test: the same gate on
# a server with a data directory that is SIGKILLed after the load (no
# shutdown hook runs — only what fsync left on disk survives) and
# restarted from the same directory before the checks.
serve-smoke-durable:
	bash benchmark/run.sh --workload serve_durable --seconds 2 --trace 0

# profile-serve runs the benchmark's serve_batch workload with the
# server's pprof listener on and, over 10 s of the timed section, saves a
# CPU profile under .profile/ and prints its top functions, the heap
# allocations per accepted op (the MemStats Mallocs delta over the /stats
# accepted delta) and the server's CPU µs per accepted op (its utime +
# stime delta over the same accepted delta), at seed 22.
profile-serve:
	bash scripts/profile-serve.sh

# bench-check builds, vets and tests the repository benchmark.
# benchmark/ is a module of its own, so the root `go build ./...` and
# `go test ./...` never compile it: an API deletion that breaks it is
# caught only here.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test -count=1 .

# check is the CI gate: formatting, static analysis (go vet plus the
# project analyzers), core's dependency boundary, the full suite under the race detector (the batch
# fan-out's concurrency contract is only proven with -race), the peer's
# retained-heap gate and the cost gates (both
# without -race), the benchmark module, ten seconds of fuzzing per Fuzz*
# target, the server boot smoke test, the kill -9 recovery smoke test, the
# virtual-time replay of the durable chaos seeds that once never
# converged, and the whole virtual-time sweep (six schedules × 450 seeds,
# one to three minutes on two CPUs).
check: fmt-check vet lint deps-check race heap-smoke cost-smoke bench-check fuzz-smoke serve-smoke serve-smoke-durable chaos-regress chaos-sim

bench:
	$(GO) test -bench . -benchtime 1x -run xxx ./...
