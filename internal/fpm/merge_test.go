package fpm

import (
	"math"
	"math/rand"
	"testing"
)

func TestMergeEpsNearDuplicates(t *testing.T) {
	a := MustPiecewiseLinear([]Point{{Size: 1000, Speed: 100}, {Size: 2000, Speed: 90}})
	b := MustPiecewiseLinear([]Point{{Size: 1000.0005, Speed: 130}})
	m, err := MergeEps(1e-6, a, b) // covers a 5e-7 relative gap
	if err != nil {
		t.Fatal(err)
	}
	pts := m.Points()
	if len(pts) != 2 {
		t.Fatalf("near-duplicate abscissae not deduped: %d points %v", len(pts), pts)
	}
	if pts[0].Speed != 130 {
		t.Errorf("later-listed model should win the deduped knot: speed %v", pts[0].Speed)
	}

	// Outside the tolerance both knots survive.
	c := MustPiecewiseLinear([]Point{{Size: 1010, Speed: 130}})
	m, err = MergeEps(1e-6, a, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Points()) != 3 {
		t.Errorf("distinct abscissae merged away: %v", m.Points())
	}
}

func TestMergeEpsValidation(t *testing.T) {
	a := MustPiecewiseLinear([]Point{{Size: 10, Speed: 100}})
	for _, eps := range []float64{-0.1, 1, 1.5, math.NaN()} {
		if _, err := MergeEps(eps, a); err == nil {
			t.Errorf("MergeEps(%v) should reject the epsilon", eps)
		}
	}
	if _, err := MergeEps(0, a, a); err != nil {
		t.Errorf("MergeEps(0) exact-duplicate dedupe failed: %v", err)
	}
}

// Clusters are anchored at their smallest member: a chain of points each
// within eps of its neighbour but spanning more than eps in total must not
// collapse to a single knot.
func TestMergeEpsAnchoredClusters(t *testing.T) {
	a := MustPiecewiseLinear([]Point{{Size: 100, Speed: 10}})
	b := MustPiecewiseLinear([]Point{{Size: 104, Speed: 11}})
	c := MustPiecewiseLinear([]Point{{Size: 108, Speed: 12}})
	m, err := MergeEps(0.05, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	// 104 joins 100's cluster (within 5%); 108 exceeds 105 and anchors its own.
	pts := m.Points()
	if len(pts) != 2 {
		t.Fatalf("anchored clustering produced %d knots %v, want 2", len(pts), pts)
	}
	if pts[0].Size != 104 || pts[1].Size != 108 {
		t.Errorf("cluster winners off: %v", pts)
	}
}

// refineCycle is one online-refinement round against a fixed ground truth:
// noisy timings at jittered grid sizes → FromTimings → merge over the
// current model → light smoothing. The refinement loop in internal/refine
// performs exactly this sequence on live observe batches.
func refineCycle(t *testing.T, rng *rand.Rand, cur *PiecewiseLinear, grid []float64, truth SpeedFunction, eps float64) *PiecewiseLinear {
	t.Helper()
	var samples []TimeSample
	for _, g := range grid {
		if rng.Float64() < 0.3 {
			continue // partial coverage: live traffic does not visit every size
		}
		size := g * (1 + 0.02*(rng.Float64()-0.5))                 // ±1% abscissa jitter
		secs := Time(truth, size) * (1 + 0.08*(rng.Float64()-0.5)) // ±4% timing noise
		samples = append(samples, TimeSample{Size: size, Seconds: secs})
	}
	if len(samples) == 0 {
		return cur
	}
	partial, err := FromTimings(samples)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeEps(eps, cur, partial)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := Smooth(merged, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// Property: repeated refine→merge cycles keep the knot count bounded (by the
// eps-net over the size range, in practice one knot per grid point) and the
// model inversion-free. Without the epsilon dedupe the same cycles accumulate
// near-duplicate knots without bound and noise across noise-sized gaps
// manufactures time inversions — the second half pins that regression.
func TestRefineMergeCycleProperty(t *testing.T) {
	grid, err := Grid(100, 100000, 12, "geometric")
	if err != nil {
		t.Fatal(err)
	}
	truth := MustPiecewiseLinear(func() []Point {
		pts := make([]Point, len(grid))
		for i, g := range grid {
			pts[i] = Point{Size: g, Speed: 400 / (1 + g/2000)}
		}
		return pts
	}())

	const cycles = 60
	rng := rand.New(rand.NewSource(7))
	cur := truth
	for c := 0; c < cycles; c++ {
		cur = refineCycle(t, rng, cur, grid, truth, 0.03)
		if n := len(cur.Points()); n > 2*len(grid) {
			t.Fatalf("cycle %d: knot count %d exceeded bound %d", c, n, 2*len(grid))
		}
		if inv := Diagnose(cur); len(inv) > 0 {
			t.Fatalf("cycle %d: time inversions appeared: %v", c, inv)
		}
	}

	// Regression: with eps=0 (the old exact-duplicate-only Merge) the same
	// traffic accumulates knots and creates inversions.
	rng = rand.New(rand.NewSource(7))
	cur = truth
	for c := 0; c < cycles; c++ {
		cur = refineCycle(t, rng, cur, grid, truth, 0)
	}
	if n := len(cur.Points()); n <= 2*len(grid) {
		t.Errorf("eps=0 control: expected unbounded knot accumulation, got %d knots", n)
	}
	if inv := Diagnose(cur); len(inv) == 0 {
		t.Error("eps=0 control: expected time inversions from near-duplicate knots")
	}
}
