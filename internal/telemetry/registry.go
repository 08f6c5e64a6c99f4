// Package telemetry is the repo's zero-dependency observability layer: a
// concurrency-safe metrics registry (counters, gauges, histograms) with
// Prometheus text and expvar-style JSON exposition, served by fpmd on
// /metrics; per-request traces kept in a flight recorder; and a Chrome
// trace_event writer (loadable in chrome://tracing or Perfetto) for those
// request traces and for simulated schedules.
//
// Only the layers fpmd runs record metrics. Their hot paths must not pay for
// disabled telemetry: every recording call is guarded by one atomic load on
// the registry's enabled flag, and metric handles are plain pointers created
// once at package init. BenchmarkDisabledOverhead keeps the disabled path at
// ~1 ns and 0 allocs.
//
// Typical use:
//
//	reg := telemetry.Default()
//	reg.SetEnabled(true)
//	calls := reg.Counter("partition_fpm_runs_total")
//	calls.Inc()
//	reg.WritePrometheus(os.Stdout)
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metrics. The zero value is not usable; use New or Default.
type Registry struct {
	enabled atomic.Bool

	mu      sync.Mutex
	metrics map[string]metric
}

// defaultRegistry is the process-wide registry every instrumented package
// records into. It starts disabled, making all instrumentation free.
var defaultRegistry = New()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// New returns an empty, disabled registry.
func New() *Registry {
	return &Registry{metrics: map[string]metric{}}
}

// SetEnabled switches recording on or off. Disabled registries drop all
// observations after a single atomic load — effectively free.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry records observations.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// metric is the common interface of registered instruments.
type metric interface {
	// meta returns the identity used for export.
	meta() metricMeta
	// promKind is the Prometheus # TYPE keyword.
	promKind() string
	// snapshotValue is the expvar-style JSON value.
	snapshotValue() any
}

// metricMeta identifies one instrument: a name plus ordered label pairs.
type metricMeta struct {
	name   string
	labels []string // k1, v1, k2, v2, ...
}

// id renders the Prometheus series identity, e.g. name{k="v"}.
func (m metricMeta) id() string {
	if len(m.labels) == 0 {
		return m.name
	}
	var b strings.Builder
	b.WriteString(m.name)
	b.WriteByte('{')
	for i := 0; i+1 < len(m.labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", m.labels[i], m.labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// labelSuffix renders {k="v",...} merged with extra pairs (for histogram
// buckets).
func (m metricMeta) labelSuffix(extraK, extraV string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(m.labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", m.labels[i], m.labels[i+1])
	}
	if extraK != "" {
		if len(m.labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraK, extraV)
	}
	b.WriteByte('}')
	if b.Len() == 2 {
		return ""
	}
	return b.String()
}

// register returns the existing instrument under the same identity or
// installs the one built by mk. It panics when the identity is already
// taken by a different instrument kind — that is a programming error.
func (r *Registry) register(name string, labels []string, mk func(metricMeta) metric) metric {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list for %s: %v", name, labels))
	}
	mm := metricMeta{name: name, labels: labels}
	id := mm.id()
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[id]; ok {
		return m
	}
	m := mk(mm)
	r.metrics[id] = m
	return m
}

// Counter returns the monotonically increasing counter registered under
// name and the ordered label pairs, creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	m := r.register(name, labels, func(mm metricMeta) metric {
		return &Counter{reg: r, m: mm}
	})
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("telemetry: %s already registered as %s", name, m.promKind()))
	}
	return c
}

// Gauge returns the gauge registered under name and the ordered label
// pairs, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	m := r.register(name, labels, func(mm metricMeta) metric {
		return &Gauge{reg: r, m: mm}
	})
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("telemetry: %s already registered as %s", name, m.promKind()))
	}
	return g
}

// Histogram returns the histogram registered under name and the ordered
// label pairs, creating it with the given bucket upper bounds on first use
// (nil buckets = DefBuckets). Later calls ignore the bucket argument.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	m := r.register(name, labels, func(mm metricMeta) metric {
		return newHistogram(r, mm, buckets)
	})
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("telemetry: %s already registered as %s", name, m.promKind()))
	}
	return h
}

// sortedMetrics returns the instruments ordered by identity for
// deterministic export.
func (r *Registry) sortedMetrics() []metric {
	r.mu.Lock()
	out := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].meta().id() < out[j].meta().id() })
	return out
}

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Counter is a monotonically increasing metric.
type Counter struct {
	reg  *Registry
	m    metricMeta
	bits atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v (negative v is ignored: counters only go
// up). It is a no-op while the registry is disabled.
func (c *Counter) Add(v float64) {
	if c == nil || !c.reg.enabled.Load() || v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) meta() metricMeta   { return c.m }
func (c *Counter) promKind() string   { return "counter" }
func (c *Counter) snapshotValue() any { return c.Value() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	reg  *Registry
	m    metricMeta
	bits atomic.Uint64
}

// Set stores v. It is a no-op while the registry is disabled.
func (g *Gauge) Set(v float64) {
	if g == nil || !g.reg.enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increases (or, with negative v, decreases) the gauge.
func (g *Gauge) Add(v float64) {
	if g == nil || !g.reg.enabled.Load() {
		return
	}
	addFloat(&g.bits, v)
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) meta() metricMeta   { return g.m }
func (g *Gauge) promKind() string   { return "gauge" }
func (g *Gauge) snapshotValue() any { return g.Value() }

// DefBuckets are general-purpose histogram bounds spanning microseconds to
// minutes — suitable for the simulated kernel times this repo measures.
var DefBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 10, 60}

// ExpBuckets returns n exponential bucket bounds: start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("telemetry: invalid ExpBuckets(%v, %v, %d)", start, factor, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Histogram counts observations into cumulative buckets, Prometheus-style.
type Histogram struct {
	reg    *Registry
	m      metricMeta
	bounds []float64 // sorted upper bounds; implicit +Inf bucket follows
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

func newHistogram(r *Registry, mm metricMeta, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] == bounds[i-1] {
			panic(fmt.Sprintf("telemetry: duplicate histogram bound %v in %s", bounds[i], mm.name))
		}
	}
	return &Histogram{
		reg: r, m: mm, bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. It is a no-op while the registry is disabled.
func (h *Histogram) Observe(v float64) {
	if h == nil || !h.reg.enabled.Load() || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) meta() metricMeta { return h.m }
func (h *Histogram) promKind() string { return "histogram" }

func (h *Histogram) snapshotValue() any {
	buckets := map[string]uint64{}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		buckets[fmt.Sprintf("%g", b)] = cum
	}
	cum += h.counts[len(h.bounds)].Load()
	buckets["+Inf"] = cum
	return map[string]any{"count": h.Count(), "sum": h.Sum(), "buckets": buckets}
}
