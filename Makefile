# Convenience targets for the fpmpart repository.

GO ?= go
# Minimum total test coverage (percent) enforced by `make cover`.
COVER_FLOOR ?= 75

.PHONY: all build test race bench-all benchsmoke fuzz experiments golden report cover check staticcheck clean

all: build test

# The full CI gate: build + vet, tests, race detector.
check: build test race

build:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l . lists:"; echo "$$unformatted"; exit 1; fi
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

# Performance numbers come from the benchmark harness (bash benchmark/run.sh,
# see benchmark/README.md). The two targets below only run the plain
# `go test -bench` benchmarks.

# Run every benchmark once.
bench-all:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# CI smoke: one iteration of each GEMM and operand-fill benchmark, just to
# prove the kernels — including the assembly ones, when the runner supports
# them — execute.
benchsmoke:
	$(GO) test -run '^$$' -bench 'Gemm|FillRandom' -benchtime=1x ./...

# Short fuzzing pass over every fuzz target.
fuzz:
	$(GO) test -fuzz=FuzzModelJSON -fuzztime=15s ./internal/fpm/
	$(GO) test -fuzz=FuzzPiecewiseLinear -fuzztime=15s ./internal/fpm/
	$(GO) test -fuzz=FuzzSizeFor -fuzztime=15s ./internal/fpm/
	$(GO) test -fuzz=FuzzRoundShares -fuzztime=15s ./internal/partition/
	$(GO) test -fuzz=FuzzFPMPartition -fuzztime=15s ./internal/partition/
	$(GO) test -fuzz=FuzzGemmDifferential -fuzztime=15s ./internal/blas/
	$(GO) test -fuzz=FuzzFillRandomAt -fuzztime=15s ./internal/matrix/
	$(GO) test -fuzz=FuzzShardRequest -fuzztime=15s ./internal/workerd/
	$(GO) test -fuzz=FuzzObserveRequest -fuzztime=15s ./internal/service/
	$(GO) test -fuzz=FuzzPartitionRequest -fuzztime=15s ./internal/service/

experiments:
	$(GO) run ./cmd/experiments

# Rewrite internal/experiments/testdata/experiments.golden — the pinned
# output of `go run ./cmd/experiments` — after an intended change to it.
golden:
	$(GO) test ./internal/experiments -run '^TestAllRegisteredExperimentsRun$$' -update

report:
	$(GO) run ./cmd/experiments -markdown > experiment-report.md

cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1
	@$(GO) tool cover -func=cover.out | tail -1 | \
		awk -v floor=$(COVER_FLOOR) '{sub(/%/, "", $$NF); if ($$NF+0 < floor) { printf "coverage %.1f%% below floor %s%%\n", $$NF, floor; exit 1 }}'

clean:
	rm -f cover.out experiment-report.md test_output.txt
