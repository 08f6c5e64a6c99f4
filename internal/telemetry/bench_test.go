package telemetry

import "testing"

// BenchmarkDisabledOverhead proves the nop path: with the registry
// disabled, every instrument costs one atomic load and zero allocations —
// instrumentation can stay in hot paths unconditionally.
func BenchmarkDisabledOverhead(b *testing.B) {
	r := New()
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h", nil)
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("gauge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Set(1)
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(1)
		}
	})
}

// BenchmarkEnabledOverhead documents the cost of live recording, for
// comparison with the disabled path.
func BenchmarkEnabledOverhead(b *testing.B) {
	r := New()
	r.SetEnabled(true)
	c := r.Counter("c_total")
	h := r.Histogram("h", nil)
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i % 100))
		}
	})
}
