GO ?= go

.PHONY: all build vet test race stress bench bench-obs bench-json bench-check coverage fuzz-smoke crash-smoke check

# The hot-path packages whose benchmarks form the committed perf
# trajectory (BENCH_flow.json): the flow engine, the simulator built on
# it, and the planner that calls the simulator thousands of times. Their
# ns/op gate is 50% too: on a shared 2-vCPU Xeon, unchanged code moved the
# incremental/reference ratio by up to 29% between runs (0.321 to 0.415 on
# EngineLargeScenario), so a 10% gate failed on noise alone.
BENCH_HOT = ./internal/flow ./internal/ddnnsim ./internal/plan

# The flight-recorder benchmarks gate separately (BENCH_obs.json):
# steady-state journal appends must stay allocation-free.
BENCH_OBS = ./internal/obs/journal

# The plan-service benchmarks gate separately (BENCH_plan.json): the
# cached-hit path must stay allocation-free and >=10x faster than the
# no-cache reference that pays a full Theorem 4.1 search per request.
# Their ns/op gate is looser (50%): the reference search is only tens of
# microseconds, GC-bound, and its ratio to the hit path swings +-20%
# between runs on a shared 2-vCPU machine. The alloc gate stays strict.
BENCH_PLAN = ./internal/plan/service

# The write-ahead-log benchmarks gate separately (BENCH_wal.json):
# steady-state appends must stay allocation-free (the alloc gate is
# threshold-independent), and the fsync-batched variants pin the
# durability/throughput trade-off. Their ns/op gate is looser (50%)
# because fsync latency is device-noisy run to run.
BENCH_WAL = ./internal/obs/journal/wal

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on -timeout 10m ./...

# race runs the full suite under the race detector; internal/obs in
# particular exercises its registry and tracer from many goroutines.
race:
	$(GO) test -race -shuffle=on -timeout 15m ./...

# stress repeats the packages with real concurrency (TCP parameter
# servers, the recovery state machine) to shake out timing-dependent
# flakes before they reach CI.
stress:
	$(GO) test -race -count=3 -shuffle=on -timeout 15m ./internal/ps ./internal/cluster

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-obs runs just the observability hot-path benchmarks (counter
# increments must stay <=50 ns/op).
bench-obs:
	$(GO) test -run xxx -bench 'BenchmarkCounterInc|BenchmarkSpanStartEnd' -benchmem .
	$(GO) test -run xxx -bench . -benchmem ./internal/obs

# bench-json refreshes the committed perf baselines: run the hot-path
# benchmarks and serialize them into BENCH_flow.json and BENCH_obs.json.
# Regenerate (and commit) after intentional perf-relevant changes.
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -count 6 -benchtime 0.5s $(BENCH_HOT) | $(GO) run ./cmd/benchjson parse -out BENCH_flow.json
	$(GO) test -run '^$$' -bench . -benchmem -count 3 -benchtime 0.5s $(BENCH_OBS) | $(GO) run ./cmd/benchjson parse -out BENCH_obs.json
	$(GO) test -run '^$$' -bench . -benchmem -count 6 -benchtime 0.5s $(BENCH_PLAN) | $(GO) run ./cmd/benchjson parse -out BENCH_plan.json
	$(GO) test -run '^$$' -bench . -benchmem -count 3 -benchtime 0.5s $(BENCH_WAL) | $(GO) run ./cmd/benchjson parse -out BENCH_wal.json

# bench-check re-runs the same benchmarks and gates against the committed
# baselines, benchstat-style. Everywhere: allocs/op must not rise, and the
# incremental paths must beat their references within this run (flow
# allocator >=2x, plan-service hit >=10x). Only when a baseline was
# captured on the same CPU at the same GOMAXPROCS: incremental/reference
# ratios must not regress by more than the threshold, and raw ns/op and
# the ddnnsim time per iteration (iters/s) by no more than 3x it. On other
# hardware those timing gates are skipped with a loud "hardware differs"
# line.
bench-check:
	$(GO) test -run '^$$' -bench . -benchmem -count 6 -benchtime 0.5s $(BENCH_HOT) | $(GO) run ./cmd/benchjson parse -out .bench_current.json
	$(GO) run ./cmd/benchjson compare -baseline BENCH_flow.json -current .bench_current.json -threshold 50 -min-speedup 2
	@rm -f .bench_current.json
	$(GO) test -run '^$$' -bench . -benchmem -count 3 -benchtime 0.5s $(BENCH_OBS) | $(GO) run ./cmd/benchjson parse -out .bench_obs.json
	$(GO) run ./cmd/benchjson compare -baseline BENCH_obs.json -current .bench_obs.json -threshold 10 -min-speedup 0
	@rm -f .bench_obs.json
	$(GO) test -run '^$$' -bench . -benchmem -count 6 -benchtime 0.5s $(BENCH_PLAN) | $(GO) run ./cmd/benchjson parse -out .bench_plan.json
	$(GO) run ./cmd/benchjson compare -baseline BENCH_plan.json -current .bench_plan.json -threshold 50 -min-speedup 10
	@rm -f .bench_plan.json
	$(GO) test -run '^$$' -bench . -benchmem -count 3 -benchtime 0.5s $(BENCH_WAL) | $(GO) run ./cmd/benchjson parse -out .bench_wal.json
	$(GO) run ./cmd/benchjson compare -baseline BENCH_wal.json -current .bench_wal.json -threshold 50 -min-speedup 0
	@rm -f .bench_wal.json

# coverage enforces per-package statement-coverage floors on the search
# core, the flow model, and the recovery state machine. Floors sit a few
# points under the measured numbers so a coverage regression fails CI
# without turning every refactor into a fight with the gate.
coverage:
	@set -e; for spec in internal/plan:80 internal/plan/service:90 internal/flow:80 internal/cluster:85 internal/cluster/replay:75 internal/cloud/pricing:80 internal/obs:80 internal/obs/journal:80 internal/obs/journal/wal:75; do \
		pkg=$${spec%:*}; floor=$${spec#*:}; \
		$(GO) test -count=1 -coverprofile=.cover.out ./$$pkg >/dev/null; \
		total=$$($(GO) tool cover -func=.cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		rm -f .cover.out; \
		echo "$$pkg: $$total% of statements (floor $$floor%)"; \
		awk -v t="$$total" -v f="$$floor" 'BEGIN { exit !(t+0 >= f+0) }' || \
			{ echo "coverage for $$pkg fell below the $$floor% floor"; exit 1; }; \
	done

# fuzz-smoke runs each native fuzz target briefly from its seed corpus
# (go test accepts only one -fuzz pattern per invocation).
fuzz-smoke:
	$(GO) test ./internal/plan -run '^$$' -fuzz '^FuzzRequestNormalize$$' -fuzztime 5s
	$(GO) test ./internal/loss -run '^$$' -fuzz '^FuzzFit$$' -fuzztime 5s
	$(GO) test ./internal/cloud -run '^$$' -fuzz '^FuzzFaultPlanSchedule$$' -fuzztime 5s
	$(GO) test ./internal/cloud/pricing -run '^$$' -fuzz '^FuzzPriceTrace$$' -fuzztime 5s

# crash-smoke is the process-level durability drill: boot cmd/master with
# a state dir, SIGKILL it with jobs in flight, restart it over the same
# directory, and assert every admitted job reaches a terminal state.
crash-smoke:
	./scripts/crash_smoke.sh

check: vet build race coverage
