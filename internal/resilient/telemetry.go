package resilient

import "fpmpart/internal/telemetry"

// Recovery metrics: every detection and recovery action of the resilient
// runtime. Free while telemetry is disabled.
var (
	retriesTotal    = telemetry.Default().Counter("resilient_retries_total")
	anomaliesTotal  = telemetry.Default().Counter("resilient_anomalies_total")
	dropsTotal      = telemetry.Default().Counter("resilient_devices_dropped_total")
	demotionsTotal  = telemetry.Default().Counter("resilient_devices_demoted_total")
	rebalancesTotal = telemetry.Default().Counter("resilient_rebalances_total")
	movedTotal      = telemetry.Default().Counter("resilient_units_moved_total")
	lostTotal       = telemetry.Default().Counter("resilient_units_lost_total")
	deviationGauge  = telemetry.Default().Gauge("resilient_last_deviation")
	migrationHist   = telemetry.Default().Histogram("resilient_migration_seconds", nil)
)

func recordRetry() {
	if telemetry.Default().Enabled() {
		retriesTotal.Inc()
	}
}

func recordAnomaly(relDev float64) {
	if !telemetry.Default().Enabled() {
		return
	}
	anomaliesTotal.Inc()
	deviationGauge.Set(relDev)
}

func recordDrop() {
	if telemetry.Default().Enabled() {
		dropsTotal.Inc()
	}
}

func recordDemote() {
	if telemetry.Default().Enabled() {
		demotionsTotal.Inc()
	}
}

func recordLost(units int) {
	if telemetry.Default().Enabled() {
		lostTotal.Add(float64(units))
	}
}

func recordRebalance(moved int, migrationSeconds float64) {
	reg := telemetry.Default()
	if !reg.Enabled() {
		return
	}
	rebalancesTotal.Inc()
	movedTotal.Add(float64(moved))
	migrationHist.Observe(migrationSeconds)
	reg.Event("resilient.rebalance", "moved", moved, "migration_seconds", migrationSeconds)
}
