package fpm

import (
	"math"
	"sort"
)

// MonotoneCubic is a smooth alternative to the piecewise-linear FPM: a
// Fritsch–Carlson monotone cubic Hermite interpolant of the speed points.
// It passes through every observation, is C¹-continuous, preserves the
// monotonicity of each data segment, and never overshoots the local data
// range — all properties a speed function must keep (an overshooting
// spline could invent speeds the hardware never exhibited, corrupting the
// partitioner's time inversion).
type MonotoneCubic struct {
	xs, ys, ms []float64
}

// NewMonotoneCubic builds the interpolant. Input validation matches
// NewPiecewiseLinear: at least one point, positive sizes and speeds, no
// duplicates. A single point yields a constant function.
func NewMonotoneCubic(points []Point) (*MonotoneCubic, error) {
	// Reuse the piecewise-linear constructor for validation and sorting.
	pl, err := NewPiecewiseLinear(points)
	if err != nil {
		return nil, err
	}
	pts := pl.Points()
	n := len(pts)
	m := &MonotoneCubic{
		xs: make([]float64, n),
		ys: make([]float64, n),
		ms: make([]float64, n),
	}
	for i, p := range pts {
		m.xs[i] = p.Size
		m.ys[i] = p.Speed
	}
	if n == 1 {
		return m, nil
	}
	// Secant slopes.
	d := make([]float64, n-1)
	for i := 0; i < n-1; i++ {
		d[i] = (m.ys[i+1] - m.ys[i]) / (m.xs[i+1] - m.xs[i])
	}
	// Initial derivative estimates.
	m.ms[0] = d[0]
	m.ms[n-1] = d[n-2]
	for i := 1; i < n-1; i++ {
		if d[i-1]*d[i] <= 0 {
			m.ms[i] = 0 // local extremum: flat tangent prevents overshoot
		} else {
			m.ms[i] = (d[i-1] + d[i]) / 2
		}
	}
	// Fritsch–Carlson limiter.
	for i := 0; i < n-1; i++ {
		if d[i] == 0 {
			m.ms[i] = 0
			m.ms[i+1] = 0
			continue
		}
		a := m.ms[i] / d[i]
		b := m.ms[i+1] / d[i]
		if s := a*a + b*b; s > 9 {
			tau := 3 / math.Sqrt(s)
			m.ms[i] = tau * a * d[i]
			m.ms[i+1] = tau * b * d[i]
		}
	}
	return m, nil
}

// Speed evaluates the interpolant; outside the measured range the nearest
// end speed is used (matching PiecewiseLinear's clamping).
func (m *MonotoneCubic) Speed(x float64) float64 {
	n := len(m.xs)
	if x <= m.xs[0] {
		return m.ys[0]
	}
	if x >= m.xs[n-1] {
		return m.ys[n-1]
	}
	i := sort.SearchFloat64s(m.xs, x) - 1
	h := m.xs[i+1] - m.xs[i]
	t := (x - m.xs[i]) / h
	t2 := t * t
	t3 := t2 * t
	h00 := 2*t3 - 3*t2 + 1
	h10 := t3 - 2*t2 + t
	h01 := -2*t3 + 3*t2
	h11 := t3 - t2
	return h00*m.ys[i] + h10*h*m.ms[i] + h01*m.ys[i+1] + h11*h*m.ms[i+1]
}

// Domain returns the measured size range.
func (m *MonotoneCubic) Domain() (min, max float64) {
	return m.xs[0], m.xs[len(m.xs)-1]
}

// Points returns the interpolated observations in size order.
func (m *MonotoneCubic) Points() []Point {
	out := make([]Point, len(m.xs))
	for i := range m.xs {
		out[i] = Point{Size: m.xs[i], Speed: m.ys[i]}
	}
	return out
}
