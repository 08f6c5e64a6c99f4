package fpm

import (
	"math"
	"testing"
	"testing/quick"
)

func cubicTestPoints() []Point {
	return []Point{
		{Size: 10, Speed: 50}, {Size: 50, Speed: 200}, {Size: 200, Speed: 450},
		{Size: 500, Speed: 460}, {Size: 600, Speed: 220}, {Size: 2000, Speed: 200},
	}
}

func TestMonotoneCubicInterpolatesKnots(t *testing.T) {
	pts := cubicTestPoints()
	m, err := NewMonotoneCubic(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if got := m.Speed(p.Size); math.Abs(got-p.Speed) > 1e-9 {
			t.Errorf("speed(%v) = %v, want knot value %v", p.Size, got, p.Speed)
		}
	}
}

func TestMonotoneCubicClamping(t *testing.T) {
	m := mustCubic(t, cubicTestPoints())
	if m.Speed(1) != 50 || m.Speed(1e9) != 200 {
		t.Error("end clamping broken")
	}
	lo, hi := m.Domain()
	if lo != 10 || hi != 2000 {
		t.Errorf("domain (%v, %v)", lo, hi)
	}
}

func TestMonotoneCubicSinglePoint(t *testing.T) {
	m, err := NewMonotoneCubic([]Point{{Size: 5, Speed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 5, 100} {
		if m.Speed(x) != 42 {
			t.Errorf("speed(%v) = %v", x, m.Speed(x))
		}
	}
}

func TestMonotoneCubicValidation(t *testing.T) {
	for _, bad := range [][]Point{nil, {{Size: -1, Speed: 5}}, {{Size: 1, Speed: 0}}} {
		if _, err := NewMonotoneCubic(bad); err == nil {
			t.Errorf("expected error for %v", bad)
		}
	}
}

// Property: the interpolant never leaves the bounding box of its segment —
// no overshoot (the defining property vs natural cubic splines).
func TestMonotoneCubicNoOvershootProperty(t *testing.T) {
	pts := cubicTestPoints()
	m := mustCubic(t, pts)
	f := func(raw uint32) bool {
		x := 10 + (2000-10)*float64(raw)/float64(math.MaxUint32)
		// Locate the segment.
		var lo, hi Point
		for i := 1; i < len(pts); i++ {
			if x <= pts[i].Size {
				lo, hi = pts[i-1], pts[i]
				break
			}
		}
		yMin := math.Min(lo.Speed, hi.Speed)
		yMax := math.Max(lo.Speed, hi.Speed)
		s := m.Speed(x)
		return s >= yMin-1e-9 && s <= yMax+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: on monotone data the interpolant is monotone.
func TestMonotoneCubicMonotoneProperty(t *testing.T) {
	m := mustCubic(t, []Point{
		{Size: 10, Speed: 50}, {Size: 100, Speed: 90}, {Size: 400, Speed: 200}, {Size: 900, Speed: 210},
	})
	f := func(a, b uint16) bool {
		x1 := 10 + 890*float64(a)/65535
		x2 := 10 + 890*float64(b)/65535
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		return m.Speed(x1) <= m.Speed(x2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: cubic and linear interpolants agree at knots and never diverge
// beyond the segment's value range from each other.
func TestMonotoneCubicVsLinear(t *testing.T) {
	pts := cubicTestPoints()
	cub := mustCubic(t, pts)
	lin := MustPiecewiseLinear(pts)
	for i := 1; i < len(pts); i++ {
		span := math.Abs(pts[i].Speed - pts[i-1].Speed)
		for f := 0.1; f < 1; f += 0.2 {
			x := pts[i-1].Size + f*(pts[i].Size-pts[i-1].Size)
			if d := math.Abs(cub.Speed(x) - lin.Speed(x)); d > span {
				t.Errorf("cubic and linear diverge by %v at %v (span %v)", d, x, span)
			}
		}
	}
}

// The cubic model works end to end with the partitioner's time inversion.
func TestMonotoneCubicWithInverter(t *testing.T) {
	m := mustCubic(t, []Point{
		{Size: 10, Speed: 100}, {Size: 1000, Speed: 100},
	})
	got := SizeFor(m, 2, 0)
	if math.Abs(got-200) > 1e-3 {
		t.Errorf("SizeFor(2) = %v, want 200", got)
	}
}

// mustCubic builds a monotone cubic interpolant, failing the test on error.
func mustCubic(t *testing.T, points []Point) *MonotoneCubic {
	t.Helper()
	m, err := NewMonotoneCubic(points)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
