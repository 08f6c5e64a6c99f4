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

# Every fuzz target, as <package dir>:<FuzzName>. TestFuzzTargetsListed
# (fuzzlist_test.go) fails when a func Fuzz... in the repository is missing.
FUZZ_TARGETS = \
	internal/fpm:FuzzModelJSON \
	internal/fpm:FuzzPiecewiseLinear \
	internal/fpm:FuzzSizeFor \
	internal/partition:FuzzRoundShares \
	internal/partition:FuzzFPMPartition \
	internal/blas:FuzzGemmDifferential \
	internal/matrix:FuzzFillRandomAt \
	internal/workerd:FuzzShardRequest \
	internal/workerd:FuzzShardResponse \
	internal/workerd:FuzzExecuteRequest \
	internal/service:FuzzObserveRequest \
	internal/service:FuzzPartitionRequest \
	internal/service:FuzzPartitionAnswer \
	internal/service:FuzzPutModel \
	internal/service:FuzzRegistration \
	internal/resilient:FuzzRun
FUZZTIME ?= 15s

# Short fuzzing pass over every fuzz target, FUZZTIME each, without first
# running each package's tests.
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime=$(FUZZTIME) "./$${t%%:*}/"; \
	done

experiments:
	$(GO) run ./cmd/experiments

# Rewrite the three pinned outputs of the simulated stack after an intended
# change to them: internal/experiments/testdata/experiments.golden (what
# `go run ./cmd/experiments` prints), internal/experiments/testdata/
# hybrid_trace.golden (the `-trace-out f -trace-n 40` Chrome trace) and
# internal/hw/testdata/ig-node.json (what `-dump-platform` prints).
golden:
	$(GO) test ./internal/experiments -run '^(TestAllRegisteredExperimentsRun|TestHybridTraceGolden)$$' -update
	$(GO) test ./internal/hw -run '^TestConfigGolden$$' -update

report:
	$(GO) run ./cmd/experiments -markdown > experiment-report.md

cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1
	@$(GO) tool cover -func=cover.out | tail -1 | \
		awk -v floor=$(COVER_FLOOR) '{sub(/%/, "", $$NF); if ($$NF+0 < floor) { printf "coverage %.1f%% below floor %s%%\n", $$NF, floor; exit 1 }}'

clean:
	rm -f cover.out experiment-report.md test_output.txt
