package service

import (
	"strconv"

	"fpmpart/internal/telemetry"
)

// Service metrics. Request counters are labelled by route and status class;
// the latency histograms separate the cached fast path from cold solves so
// the warm/cold split is visible in /metrics. All free while the registry is
// disabled.
// The warm/cold histograms use fine factor-2 exponential buckets (1µs up to
// ~33s) rather than DefBuckets: a p99 read off /metrics is only as precise
// as the bucket it falls in.
var (
	inflightGauge  = telemetry.Default().Gauge("fpmd_inflight_requests")
	cacheHits      = telemetry.Default().Counter("fpmd_cache_hits_total")
	cacheMisses    = telemetry.Default().Counter("fpmd_cache_misses_total")
	cacheCoalesced = telemetry.Default().Counter("fpmd_cache_coalesced_total")
	shedTotal      = telemetry.Default().Counter("fpmd_shed_total")
	panicsTotal    = telemetry.Default().Counter("http_panics_total")
	coldSeconds    = telemetry.Default().Histogram("fpmd_partition_cold_seconds", telemetry.ExpBuckets(1e-6, 2, 26))
	warmSeconds    = telemetry.Default().Histogram("fpmd_partition_warm_seconds", telemetry.ExpBuckets(1e-6, 2, 26))
)

// Cluster-mode serving metrics: how often this instance owned the keys it
// was asked for, how forwards to owners went (ok / fallback-to-local on a
// transport failure), and how many requests arrived here via a peer's
// forward hop.
var forwardedServed = telemetry.Default().Counter("fpmd_forwarded_served_total")

func forwardsTotal(outcome string) *telemetry.Counter {
	return telemetry.Default().Counter("fpmd_forwards_total", "outcome", outcome)
}

func observeForwardsTotal(outcome string) *telemetry.Counter {
	return telemetry.Default().Counter("fpmd_observe_forwards_total", "outcome", outcome)
}

func ownershipTotal(owner string) *telemetry.Counter {
	return telemetry.Default().Counter("fpmd_key_ownership_total", "owner", owner)
}

// requestsTotal returns the counter for one route/status pair. The registry
// deduplicates identities, so calling this per request is cheap enough for
// a control-plane API (and free when telemetry is disabled).
func requestsTotal(route string, status int) *telemetry.Counter {
	return telemetry.Default().Counter("fpmd_requests_total",
		"route", route, "code", strconv.Itoa(status))
}

func requestSeconds(route string) *telemetry.Histogram {
	return telemetry.Default().Histogram("fpmd_request_seconds", nil, "route", route)
}
