GO ?= go

.PHONY: build test check race bench bench-check deps-check vet fmt fmt-check lint chaos fuzz-smoke heap-smoke cost-smoke serve-smoke serve-smoke-durable

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the project-specific analyzers (internal/lint): lockheld,
# cryptorand, consttime, deferloop, errignored, walorder, lockorder,
# timerleak, atomicmix, chanclose. See DESIGN.md §5 for the
# analyzer -> invariant table.
lint:
	$(GO) run ./cmd/prever-lint ./...

# deps-check keeps the engines free of the served stack: internal/core
# (and so the root prever package's engines) must not reach consensus, the
# mempool, the WAL or the boot configuration, directly or transitively.
deps-check:
	@bad="$$($(GO) list -deps ./internal/core | grep -E '^prever/internal/(chain|pbft|mempool|wal|conf)$$' || true)"; \
	if [ -n "$$bad" ]; then \
		echo "deps-check: internal/core reaches:"; echo "$$bad"; exit 1; \
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
# (~0.02 heap objects), and the mempool retains nothing per resolved op.
# `make race` skips both tests: the detector's shadow allocations would
# be counted as theirs.
heap-smoke:
	$(GO) test -count=1 -run '^(TestPeerRetainedPerTx|TestPoolRetainsNothingPerResolvedOp)$$' -v ./internal/chain ./internal/mempool

# cost-smoke runs the cost gates: ratios of two timings taken interleaved
# in one test, so they hold on a host of any speed. On a 1024-bit key,
# mpc.CheckBound on one input is at most 1.25x the Encrypt(0) + Decrypt
# the protocol cannot avoid; at MODP2048, group's mulMod (Barrett, three
# multiplications) is at most 0.8x the Mul + QuoRem it replaced, and
# MultiExp (a Bos–Coster chain) costs at most 11 000 mulMods on the
# verifier's 288-term fold and at most 0.6x the per-term Exp product on
# the exponent vectors that make every step of the chain a division.
# `make race` skips all three: a timing ratio under the detector measures
# the detector. -p 1: one package at a time, so no gate is timed while
# another's test binary compiles or runs.
cost-smoke:
	$(GO) test -p 1 -count=1 -run '^(TestCheckBoundCost|TestMulModCost|TestMultiExpCost)$$' ./internal/mpc ./internal/group

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
# target, the server boot smoke test, and the kill -9 recovery smoke test.
check: fmt-check vet lint deps-check race heap-smoke cost-smoke bench-check fuzz-smoke serve-smoke serve-smoke-durable

bench:
	$(GO) test -bench . -benchtime 1x -run xxx ./...
