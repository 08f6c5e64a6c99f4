package fpm

import (
	"math"
	"testing"
)

// FuzzModelJSON checks the model decoder that reads every uploaded model,
// every model file and every replicated model: it never panics, anything it
// accepts is a valid model, and the model survives MarshalJSON →
// UnmarshalJSON with the same points, bit for bit.
func FuzzModelJSON(f *testing.F) {
	f.Add([]byte(`{"kind":"piecewise-linear","points":[{"size":10,"speed":100},{"size":20,"speed":200}]}`))
	f.Add([]byte(`{"points":[{"size":1,"speed":2}]}`))
	f.Add([]byte(`{"points":[{"size":"a","speed":"b"}]}`))
	f.Add([]byte(`{"points":[{"size":10}]}`))
	f.Add([]byte(`{"points":[{"size":1e300,"speed":1e300},{"size":2e300,"speed":1}]}`))
	f.Add([]byte(`{"points":[{"size":10,"speed":-5}]}`))
	f.Add([]byte(`{"kind":"cpm"}`))
	f.Add([]byte(`{"points":null}`))
	f.Add([]byte(`{"points":[{"size":1e999,"speed":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m PiecewiseLinear
		if err := m.UnmarshalJSON(data); err != nil {
			return
		}
		lo, hi := m.Domain()
		if !(lo > 0) || !(hi >= lo) {
			t.Fatalf("accepted model with bad domain (%v, %v) from %q", lo, hi, data)
		}
		if s := m.Speed((lo + hi) / 2); !(s > 0) || math.IsInf(s, 0) {
			t.Fatalf("accepted model with bad speed %v from %q", s, data)
		}
		enc, err := m.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal accepted model: %v", err)
		}
		var back PiecewiseLinear
		if err := back.UnmarshalJSON(enc); err != nil {
			t.Fatalf("round trip of %s failed: %v", enc, err)
		}
		a, b := m.Points(), back.Points()
		if len(a) != len(b) {
			t.Fatalf("round trip changed the point count: %d -> %d", len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i].Size) != math.Float64bits(b[i].Size) ||
				math.Float64bits(a[i].Speed) != math.Float64bits(b[i].Speed) {
				t.Fatalf("round trip changed point %d: %+v -> %+v", i, a[i], b[i])
			}
		}
	})
}

// FuzzPiecewiseLinear checks constructor robustness and interpolation
// bounds for arbitrary point sets.
func FuzzPiecewiseLinear(f *testing.F) {
	f.Add(10.0, 100.0, 20.0, 200.0, 15.0)
	f.Add(1.0, 1.0, 1.0, 1.0, 1.0)
	f.Add(0.0, 5.0, 3.0, -1.0, 2.0)
	f.Fuzz(func(t *testing.T, x1, s1, x2, s2, q float64) {
		m, err := NewPiecewiseLinear([]Point{{Size: x1, Speed: s1}, {Size: x2, Speed: s2}})
		if err != nil {
			return
		}
		got := m.Speed(q)
		lo := math.Min(s1, s2)
		hi := math.Max(s1, s2)
		if math.IsNaN(got) || got < lo-1e-9 || got > hi+1e-9 {
			t.Fatalf("Speed(%v) = %v outside [%v, %v]", q, got, lo, hi)
		}
	})
}
