package service

import (
	"strconv"
	"sync"
	"sync/atomic"

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
var (
	forwardedServed       = telemetry.Default().Counter("fpmd_forwarded_served_total")
	forwardsOK            = lazyCounter("fpmd_forwards_total", "outcome", "ok")
	forwardsFailed        = lazyCounter("fpmd_forwards_total", "outcome", "fallback")
	observeForwardsOK     = lazyCounter("fpmd_observe_forwards_total", "outcome", "ok")
	observeForwardsFailed = lazyCounter("fpmd_observe_forwards_total", "outcome", "fallback")
	ownedBySelf           = lazyCounter("fpmd_key_ownership_total", "owner", "self")
	ownedByPeer           = lazyCounter("fpmd_key_ownership_total", "owner", "peer")
)

// lazyCounter resolves a labelled counter on its first use, so /metrics
// lists the series only once something counted in it.
func lazyCounter(name string, labels ...string) func() *telemetry.Counter {
	return sync.OnceValue(func() *telemetry.Counter { return telemetry.Default().Counter(name, labels...) })
}

// routeSeries holds one route's request series. Each handle is resolved on
// the route's first request that needs it, and later requests load it
// without going through the registry's lock, so a served request builds no
// label identity.
type routeSeries struct {
	route   string
	seconds func() *telemetry.Histogram
	codes   [500]atomic.Pointer[telemetry.Counter] // by status − 100
}

func newRouteSeries(route string) *routeSeries {
	return &routeSeries{
		route:   route,
		seconds: sync.OnceValue(func() *telemetry.Histogram { return requestSeconds(route) }),
	}
}

// requests returns the route's counter for status. Two first requests may
// both resolve it; the registry hands both the same counter.
func (r *routeSeries) requests(status int) *telemetry.Counter {
	if status < 100 || status >= 100+len(r.codes) {
		return requestsTotal(r.route, status)
	}
	slot := &r.codes[status-100]
	c := slot.Load()
	if c == nil {
		c = requestsTotal(r.route, status)
		slot.Store(c)
	}
	return c
}

func requestsTotal(route string, status int) *telemetry.Counter {
	return telemetry.Default().Counter("fpmd_requests_total",
		"route", route, "code", strconv.Itoa(status))
}

func requestSeconds(route string) *telemetry.Histogram {
	return telemetry.Default().Histogram("fpmd_request_seconds", nil, "route", route)
}
