GO ?= go

.PHONY: build test check race bench bench-check bench-json vet fmt fmt-check lint chaos fuzz-smoke serve-smoke serve-smoke-durable

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

# serve-smoke is the deployment smoke test: boot a real prever-server
# process on an ephemeral port, drive it with the remote open-loop bench
# for 2 seconds at a low rate, and gate on committed > 0 with zero
# errors (-check also probes /health and /stats). The multi-process
# harness tests (internal/harness) cover the same path under `make
# test`; this target is the standalone end-to-end gate.
serve-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/prever-server ./cmd/prever-server; \
	$$tmp/prever-server -addr 127.0.0.1:0 > $$tmp/server.out 2>$$tmp/server.err & \
	pid=$$!; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's/.*listening on //p' $$tmp/server.out); \
		[ -n "$$addr" ] && break; \
		kill -0 $$pid 2>/dev/null || { echo "serve-smoke: server died:"; cat $$tmp/server.err; exit 1; }; \
		sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "serve-smoke: server never printed its address"; exit 1; }; \
	echo "serve-smoke: server at $$addr"; \
	$(GO) run ./cmd/prever-bench remote -addr "$$addr" -limit 100 -conns 2 -duration 2s -check

# serve-smoke-durable is the crash-durability smoke test: boot a real
# prever-server with a data directory, load it, SIGKILL it mid-flight
# (no shutdown hook runs — only what fsync left on disk survives),
# restart from the same directory, and gate on the recovered server
# committing fresh load AND every peer chain re-verifying and
# converging (-audit polls GET /audit).
serve-smoke-durable:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill -9 $$pid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/prever-server ./cmd/prever-server; \
	boot() { \
		$$tmp/prever-server -addr 127.0.0.1:0 -data $$tmp/data -snap-every 32 > $$tmp/server.out 2>$$tmp/server.err & \
		pid=$$!; \
		addr=""; \
		for i in $$(seq 1 100); do \
			addr=$$(sed -n 's/.*listening on //p' $$tmp/server.out); \
			[ -n "$$addr" ] && break; \
			kill -0 $$pid 2>/dev/null || { echo "serve-smoke-durable: server died:"; cat $$tmp/server.err; exit 1; }; \
			sleep 0.1; \
		done; \
		[ -n "$$addr" ] || { echo "serve-smoke-durable: server never printed its address"; exit 1; }; \
	}; \
	boot; \
	echo "serve-smoke-durable: server at $$addr (data $$tmp/data)"; \
	$(GO) run ./cmd/prever-bench remote -addr "$$addr" -limit 100 -conns 2 -duration 2s -check; \
	echo "serve-smoke-durable: SIGKILL $$pid"; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	: > $$tmp/server.out; \
	boot; \
	echo "serve-smoke-durable: recovered server at $$addr"; \
	$(GO) run ./cmd/prever-bench remote -addr "$$addr" -limit 100 -conns 2 -duration 2s -check -audit 30s

# bench-check builds, vets and tests the repository benchmark.
# benchmark/ is a module of its own, so the root `go build ./...` and
# `go test ./...` never compile it: an API deletion that breaks it is
# caught only here.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test -count=1 .

# check is the CI gate: formatting, static analysis (go vet plus the
# project analyzers), the full suite under the race detector (the batch
# fan-out's concurrency contract is only proven with -race), the
# benchmark module, ten seconds of fuzzing per Fuzz* target, the server
# boot smoke test, and the kill -9 recovery smoke test.
check: fmt-check vet lint race bench-check fuzz-smoke serve-smoke serve-smoke-durable

bench:
	$(GO) test -bench . -benchtime 1x -run xxx ./...

# bench-json records a machine-readable snapshot of the experiment suite
# as BENCH_<date>.json — the committed series tracks throughput across
# PRs (first snapshot: the mempool/batched-consensus PR). A second run on
# the same day suffixes .2, .3, ... instead of clobbering the earlier
# snapshot.
bench-json:
	@out=BENCH_$$(date +%Y-%m-%d).json; n=2; \
	while [ -e "$$out" ]; do out=BENCH_$$(date +%Y-%m-%d).$$n.json; n=$$((n+1)); done; \
	$(GO) run ./cmd/prever-bench -json > "$$out" && echo "wrote $$out"
