# Convenience targets for the fpmpart repository.

GO ?= go
# Minimum total test coverage (percent) enforced by `make cover`.
COVER_FLOOR ?= 75

.PHONY: all build test race bench bench-all benchsmoke benchcmp fuzz experiments report cover check staticcheck fpmd-smoke fpmd-selfcheck fpmd-cluster-smoke fpmd-cluster-bench fpmd-refine-smoke fpmd-worker-smoke clean

all: build test

# The full CI gate: build + vet, tests, race detector.
check: build test race

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Pinned staticcheck, fetched on demand by the module cache (2023.1.7 is the
# release that supports Go 1.22). Not part of `check` so offline builds work.
STATICCHECK_VERSION ?= 2023.1.7
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# Key benchmarks captured in the committed baseline. The sequential/parallel
# pairs demonstrate the worker-pool speedup for model building and experiment
# sweeps; the partition benchmarks track solver cost; the Gemm benchmarks
# track the packed kernel against the seed blocked loop (GemmBatch covers
# the batched small-GEMM engine against the looped baseline); Strassen
# tracks the Winograd layer against its own leaf kernel; the ServeTraced /
# ServeUntraced pair tracks the request-tracing overhead on the warm serving
# path (budget: <5%).
BENCH_PATTERN ?= PartitionFPM|PartitionGeometric|Figure7Sweep|BuildModelSequential|BuildModelParallel|ExperimentSweepSequential|ExperimentSweepParallel|Gemm|Strassen|ServeTraced|ServeUntraced
BENCH_DATE := $(shell date -u +%Y-%m-%d)
# Optional suffix for the baseline filename (e.g. BENCH_TAG=-gemm writes
# BENCH_2026-08-05-gemm.json), so a re-run on the same day can sit alongside
# the existing baseline for `make benchcmp`.
BENCH_TAG ?=

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem ./... | tee bench_output.txt
	$(GO) run ./cmd/benchjson < bench_output.txt > BENCH_$(BENCH_DATE)$(BENCH_TAG).json
	@echo "wrote BENCH_$(BENCH_DATE)$(BENCH_TAG).json"

# Run every benchmark once without writing a baseline file.
bench-all:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# CI smoke: one iteration of each GEMM benchmark (batch engine and Strassen
# layer included), just to prove the kernels — including the assembly
# micro-kernels, when the runner supports them — execute.
benchsmoke:
	$(GO) test -run '^$$' -bench 'Gemm|Strassen' -benchtime=1x ./...

# Diff two benchjson baselines: make benchcmp OLD=BENCH_a.json NEW=BENCH_b.json
OLD ?=
NEW ?=
benchcmp:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make benchcmp OLD=BENCH_a.json NEW=BENCH_b.json"; exit 2; }
	$(GO) run ./cmd/benchcmp $(OLD) $(NEW)

# Short fuzzing pass over every fuzz target.
fuzz:
	$(GO) test -fuzz=FuzzReadText -fuzztime=15s ./internal/fpm/
	$(GO) test -fuzz=FuzzPiecewiseLinear -fuzztime=15s ./internal/fpm/
	$(GO) test -fuzz=FuzzSizeFor -fuzztime=15s ./internal/fpm/
	$(GO) test -fuzz=FuzzRoundShares -fuzztime=15s ./internal/partition/
	$(GO) test -fuzz=FuzzFPMPartition -fuzztime=15s ./internal/partition/
	$(GO) test -fuzz=FuzzGemmDifferential -fuzztime=15s ./internal/blas/

# End-to-end check of the partitioning daemon: boot on an ephemeral port,
# upload a model over HTTP, partition, scrape /metrics, drain cleanly.
fpmd-smoke:
	$(GO) run ./cmd/fpmd -smoke

# Serving acceptance check (load, shed, SIGTERM drain). Heavier than the
# smoke test (~30s); not part of `check`.
fpmd-selfcheck:
	$(GO) run ./cmd/fpmd -selfcheck

# Cluster end-to-end check: spawn 3 fpmd members, PUT a model to one, assert
# it replicates to all three and that partition answers originate from every
# member (consistent-hash ownership + forwarding), drain cleanly.
fpmd-cluster-smoke:
	$(GO) run ./cmd/fpmd -cluster-smoke

# Cluster scaling + rolling-restart bench; writes BENCH_<date>-cluster.json.
# See runClusterBench in cmd/fpmd for the capacity model it uses on 1-core
# hosts.
fpmd-cluster-bench:
	$(GO) run ./cmd/fpmd -cluster-bench

# Online-refinement convergence experiment: a mis-seeded model serves
# partitions while noisy observe traffic streams into /v1/observe; the
# refined model must converge to the hidden truth (>=5x mean-error drop)
# with no stale-generation cache answers. Writes BENCH_<date>-refine.json.
fpmd-refine-smoke:
	$(GO) run ./cmd/fpmd -refine-smoke

# Real-execution end-to-end check: 3 fpmworker processes (one fault-slowed)
# register with an in-process coordinator, a GEMM job is dispatched over
# HTTP with FPM vs even partitioning, observed shard timings refine the
# slowed worker's model, and a 4th worker is crash-killed mid-job to prove
# residual re-partitioning on survivors stays bit-exact. Writes
# BENCH_<date>-worker.json.
fpmd-worker-smoke:
	$(GO) run ./cmd/fpmd -worker-smoke

experiments:
	$(GO) run ./cmd/experiments

report:
	$(GO) run ./cmd/experiments -report experiment-report.md

cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1
	@$(GO) tool cover -func=cover.out | tail -1 | \
		awk -v floor=$(COVER_FLOOR) '{sub(/%/, "", $$NF); if ($$NF+0 < floor) { printf "coverage %.1f%% below floor %s%%\n", $$NF, floor; exit 1 }}'

clean:
	rm -f cover.out experiment-report.md test_output.txt bench_output.txt
