GO ?= go

.PHONY: all build vet test bench repro sweep clean race bench-json bench-compare doccheck catalogcheck chaos

all: build vet test doccheck catalogcheck

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full test log, as recorded in test_output.txt.
test-log:
	$(GO) test ./... 2>&1 | tee test_output.txt

bench:
	$(GO) test -bench=. -benchmem ./...

bench-log:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Machine-readable benchmark summary (BENCH_<short-sha>.json, or
# BENCH_worktree.json outside a git checkout).
bench-json:
	$(GO) test -bench=. -benchmem ./... | \
		$(GO) run ./cmd/benchjson -o BENCH_$$(git rev-parse --short HEAD 2>/dev/null || echo worktree).json

# Regression gate against the committed baseline: re-run the gated fan-out
# replay and cache hot-loop benchmarks and fail on a >15% ns/op regression.
# Same check CI runs; refresh BENCH_baseline.json when a slowdown is intended.
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkFanoutReplay' . > /tmp/hybridmem_gate_bench.txt
	$(GO) test -run '^$$' -bench 'BenchmarkCacheAccess' ./internal/cache/ >> /tmp/hybridmem_gate_bench.txt
	$(GO) run ./cmd/benchjson -o /tmp/hybridmem_BENCH_gate.json < /tmp/hybridmem_gate_bench.txt
	$(GO) run ./cmd/benchjson -compare -threshold 15 -match 'FanoutReplay|CacheAccess' \
		BENCH_baseline.json /tmp/hybridmem_BENCH_gate.json

# Race-detector pass over the full test suite (~2 minutes).
race:
	$(GO) test -race ./...

# Chaos harness: drive CHAOS_REQUESTS mixed requests (poisoned designs that
# panic, NVM device-fault specs) through the serving path under the race
# detector. Asserts zero process exits, one evaluation per request key
# (poisoned repeats answered from negative entries), bounded uncorrectable
# rates, and same-seed determinism.
CHAOS_REQUESTS ?= 1000
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/serve -chaos-requests=$(CHAOS_REQUESTS) -v

# Godoc hygiene: every package needs a package comment; the listed
# packages additionally need doc comments on every exported symbol.
doccheck:
	$(GO) run ./cmd/doccheck -exported internal/serve,internal/exp,internal/obs,internal/design,internal/trace,internal/cache,internal/core,internal/fault,internal/store,internal/tech,internal/admit,internal/reuse,internal/analytic .

# Schema-validate the embedded builtin catalog and every example catalog
# file (hybridmem-catalog/1, see FORMATS.md).
catalogcheck:
	$(GO) run ./cmd/catalogcheck
	$(GO) run ./cmd/catalogcheck examples/catalogs/*.json

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
repro:
	$(GO) run ./cmd/paperrepro -all

# Full design-space sweep as CSV.
sweep:
	$(GO) run ./cmd/sweep -design all > sweep.csv

clean:
	$(GO) clean ./...
	rm -f sweep.csv
