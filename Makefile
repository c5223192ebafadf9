GO ?= go

.PHONY: all build vet test race stress bench bench-smoke coverage fuzz-smoke crash-smoke fma-check check

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
# servers, the recovery state machine, the plan service's admission
# bound, the workload table every request shares, concurrent
# barriers over the durable tier's snapshot slots) to shake out
# timing-dependent flakes before they reach CI.
stress:
	$(GO) test -race -count=3 -shuffle=on -timeout 15m ./internal/ps ./internal/cluster ./internal/plan/service ./internal/model ./internal/cluster/replay

# bench runs every benchmark as a developer tool; nothing is gated on it.
# Allocation bounds are plain tests that `make test` runs, and throughput
# is measured end to end by `bash cmd/cynthiabench/run.sh`.
bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs every benchmark exactly once, so a benchmark that
# panics or no longer builds fails CI instead of rotting unnoticed.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# coverage enforces per-package statement-coverage floors on the search
# core and the baseline provisioners beside it, the flow model, the
# training simulator, the recovery state machine, and the workload model
# every request shares. Floors sit a few
# points under the measured numbers so a coverage regression fails CI
# without turning every refactor into a fight with the gate.
coverage:
	@set -e; for spec in internal/plan:80 internal/plan/service:90 internal/flow:80 internal/ddnnsim:85 internal/cluster:85 internal/model:90 internal/cluster/replay:75 internal/cloud:80 internal/cloud/pricing:80 internal/baseline:80 internal/obs:80 internal/obs/journal:80 internal/obs/journal/wal:75; do \
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
	$(GO) test ./internal/obs/journal -run '^$$' -fuzz '^FuzzDecodeEvent$$' -fuzztime 5s
	$(GO) test ./internal/obs/journal/wal -run '^$$' -fuzz '^FuzzWALRecover$$' -fuzztime 5s
	$(GO) test ./internal/obs/journal/wal -run '^$$' -fuzz '^FuzzLatestSnapshot$$' -fuzztime 5s
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzDecodeJobRequest$$' -fuzztime 5s
	$(GO) test ./internal/flow -run '^$$' -fuzz '^FuzzAllocatorDifferential$$' -fuzztime 5s

# crash-smoke is the process-level durability drill: boot cmd/master with
# a state dir, SIGKILL it with jobs in flight, restart it over the same
# directory, and assert every admitted job reaches a terminal state.
crash-smoke:
	./scripts/crash_smoke.sh

# fma-check fails on any fused multiply-add in the packages whose outputs
# the goldens and digests pin. The Go spec lets the compiler fuse x*y + z
# into one instruction, which skips the product's rounding, unless an
# explicit float64(...) conversion rounds it (DESIGN §9). amd64 never
# fuses; arm64, ppc64le, s390x and riscv64 do. The check cross-compiles
# those packages' non-test files for each and greps the assembly, so it
# needs neither the target hardware nor a network.
FMA_PKGS = ./internal/flow ./internal/numeric ./internal/ddnnsim ./internal/baseline ./internal/cloud/... ./internal/model ./internal/simtest

fma-check:
	@set -e; failed=; for arch in arm64 ppc64le s390x riscv64; do \
		asm=$$(GOARCH=$$arch $(GO) build -gcflags=-S $(FMA_PKGS) 2>&1) || { echo "$$asm"; exit 1; }; \
		fused=$$(echo "$$asm" | grep -E '^[[:space:]]+0x[0-9a-f]+ [0-9]+ \(.*\)[[:space:]]+FN?M(ADD|SUB)[SD]?[[:space:]]' || true); \
		echo "$$arch: $$(printf '%s' "$$fused" | grep -c .) fused multiply-add instructions"; \
		[ -z "$$fused" ] || { echo "$$fused"; failed=1; }; \
	done; [ -z "$$failed" ]

check: vet build race coverage fma-check
