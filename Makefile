GO ?= go

.PHONY: all build vet test bench repro sweep clean race doccheck catalogcheck chaos

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
