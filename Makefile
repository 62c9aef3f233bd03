# Standard developer entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race bench bench-gate soak-1m fuzz-soak profile vet fmt fmt-check lint lint-json ci experiments examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Fail (with the offending files listed) if anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Custom determinism/concurrency analyzers; see CONTRIBUTING.md. The gate
# covers _test.go files too and fails on //ndlint:ignore directives that no
# longer suppress anything.
lint:
	$(GO) run ./cmd/ndlint -tests -verify-suppressions ./...

# Same gate, NDJSON to stdout — for editors and tooling that ingest findings.
lint-json:
	$(GO) run ./cmd/ndlint -json -tests -verify-suppressions ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Everything the GitHub Actions pipeline runs, locally and in order. The
# test pass shuffles execution order, the perfbench module's own tests
# (committed digests, spec/catalog agreement) run from its separate go.mod,
# the bench smoke compiles and runs each fast-package benchmark once so
# harness breakage surfaces before merge, and the bench gate compares a
# fresh throughput snapshot against the committed BENCH_3.json via
# cmd/ndstat.
ci: build vet fmt-check lint
	$(GO) test -shuffle=on ./...
	$(GO) -C perfbench test ./...
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./internal/sim/... ./internal/harness/... ./internal/telemetry/... ./internal/dynamics/... ./internal/channel/... ./internal/topology/...
	$(GO) test -race ./internal/harness/... ./internal/experiment/... ./internal/trace/... ./internal/sim/... ./internal/telemetry/... ./internal/dynamics/... ./internal/diag/...
	$(MAKE) bench-gate

# Bench-regression gate: take a fresh cmd/ndperf snapshot and diff it
# against the committed BENCH_3.json with cmd/ndstat. The 50% threshold is
# deliberately loose — wall-clock varies across machines, but allocs/op is
# deterministic and a halving of throughput is a real regression anywhere.
bench-gate:
	@tmp="$$(mktemp)"; trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/ndperf -out "$$tmp" && \
	$(GO) run ./cmd/ndstat -gate -threshold 50 BENCH_3.json "$$tmp"

# One full pass of every reproduction benchmark (one iteration each), then
# the engine throughput snapshot: cmd/ndperf rewrites BENCH_3.json with
# ns/slot, allocation and delivery-throughput figures for both engines.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./...
	$(GO) run ./cmd/ndperf -out BENCH_3.json

# Off-CI scale soak: one million nodes (CSR-streamed geometric graph, mean
# degree ~15) resolved on the tiled parallel path. Allocates tens of GB and
# runs for minutes; run by hand when touching the tiled engine, the CSR
# generators, or the halo kernels. Prints per-stage timings; writes nothing.
soak-1m:
	$(GO) run ./cmd/ndperf -soak1m

# Off-CI fuzz soak: every testing.F target in the module, 60s each (go
# test fuzzes one target per invocation). Plain `go test` only replays
# the seed corpora committed under each package's testdata/fuzz; new
# failing inputs land there too, ready to commit as regression seeds.
fuzz-soak:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' "$$pkg" | grep '^Fuzz' || true); do \
			echo "== $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 60s "$$pkg"; \
		done; \
	done

# CPU/heap profiles of the engine hot path, via cmd/ndperf's pprof flags.
# Inspect with `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) run ./cmd/ndperf -cpuprofile cpu.pprof -memprofile mem.pprof -out /dev/null

# Regenerate the EXPERIMENTS.md tables (markdown on stdout).
experiments:
	$(GO) run ./cmd/ndbench -all -markdown

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/heterogeneity
	$(GO) run ./examples/asyncdrift
	$(GO) run ./examples/baseline
	$(GO) run ./examples/termination
	$(GO) run ./examples/scheduling
	$(GO) run ./examples/churn

clean:
	$(GO) clean ./...
