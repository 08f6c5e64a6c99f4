package partition

import (
	"math"

	"fpmpart/internal/telemetry"
)

// Partitioner metrics: how often each algorithm runs, how hard the FPM
// bisection works, and how balanced the produced distributions are. All
// recording is free while the process-wide registry is disabled.
var (
	fpmRunsTotal       = telemetry.Default().Counter("partition_runs_total", "algorithm", "fpm")
	cpmRunsTotal       = telemetry.Default().Counter("partition_runs_total", "algorithm", "cpm")
	homRunsTotal       = telemetry.Default().Counter("partition_runs_total", "algorithm", "homogeneous")
	truncatedTotal     = telemetry.Default().Counter("partition_truncated_total")
	solverIterations   = telemetry.Default().Histogram("partition_solver_iterations", telemetry.ExpBuckets(1, 2, 10))
	residualImbalance  = telemetry.Default().Gauge("partition_residual_imbalance")
	partitionedUnitsTo = telemetry.Default().Histogram("partition_problem_units", telemetry.ExpBuckets(10, 10, 7))
)

// recordResult feeds one partitioning outcome into the metrics and, when an
// event sink is attached, emits the per-device share distribution.
func recordResult(algorithm string, runs *telemetry.Counter, res Result) {
	reg := telemetry.Default()
	if !reg.Enabled() {
		return
	}
	runs.Inc()
	solverIterations.Observe(float64(res.Iterations))
	partitionedUnitsTo.Observe(float64(res.Total))
	if im := res.Imbalance(); !math.IsNaN(im) {
		residualImbalance.Set(im)
	}
	if !res.Converged {
		truncatedTotal.Inc()
	}
	events := reg.EventLog()
	if events == nil {
		return
	}
	names := make([]string, len(res.Assignments))
	units := make([]int, len(res.Assignments))
	times := make([]float64, len(res.Assignments))
	for i, a := range res.Assignments {
		names[i] = a.Device.Name
		units[i] = a.Units
		times[i] = a.PredictedTime
	}
	events.Emit("partition.done",
		"algorithm", algorithm,
		"total", res.Total,
		"iterations", res.Iterations,
		"converged", res.Converged,
		"imbalance", sanitize(res.Imbalance()),
		"devices", names,
		"units", units,
		"predicted_seconds", times,
	)
}

// sanitize maps NaN/Inf (not valid JSON numbers) to nil for event fields.
func sanitize(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return v
}
