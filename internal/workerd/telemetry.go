package workerd

import "fpmpart/internal/telemetry"

// Pool/executor-side metrics, served on the coordinator's /metrics.
var (
	workersAlive = telemetry.Default().Gauge("workerd_workers_alive")
	jobsTotal    = telemetry.Default().Counter("workerd_jobs_total")
	roundSeconds = telemetry.Default().Histogram("workerd_round_seconds", telemetry.ExpBuckets(1e-4, 2, 24))
)

func registrationsTotal(outcome string) *telemetry.Counter {
	return telemetry.Default().Counter("workerd_registrations_total", "outcome", outcome)
}

func dispatchTotal(outcome string) *telemetry.Counter {
	return telemetry.Default().Counter("workerd_dispatch_total", "outcome", outcome)
}

func deathsTotal(reason string) *telemetry.Counter {
	return telemetry.Default().Counter("workerd_worker_deaths_total", "reason", reason)
}

func repartitionsTotal() *telemetry.Counter {
	return telemetry.Default().Counter("workerd_repartitions_total")
}
