package partition

import (
	"math"

	"fpmpart/internal/telemetry"
)

// Solver metrics: how often fpmd's FPM solve runs, how many evaluations of
// total(T) it takes, and how balanced the produced distributions are. All
// recording is free while the process-wide registry is disabled.
var (
	fpmRunsTotal       = telemetry.Default().Counter("partition_runs_total", "algorithm", "fpm")
	solverIterations   = telemetry.Default().Histogram("partition_solver_iterations", telemetry.ExpBuckets(1, 2, 10))
	residualImbalance  = telemetry.Default().Gauge("partition_residual_imbalance")
	partitionedUnitsTo = telemetry.Default().Histogram("partition_problem_units", telemetry.ExpBuckets(10, 10, 7))
)

// recordResult feeds one FPM solve into the metrics.
func recordResult(res Result) {
	if !telemetry.Default().Enabled() {
		return
	}
	fpmRunsTotal.Inc()
	solverIterations.Observe(float64(res.Iterations))
	partitionedUnitsTo.Observe(float64(res.Total))
	if im := res.Imbalance(); !math.IsNaN(im) {
		residualImbalance.Set(im)
	}
}
