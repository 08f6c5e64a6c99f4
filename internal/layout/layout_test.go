package layout

import (
	"math"
	"testing"
	"testing/quick"
)

func TestContinuousSingleProcessor(t *testing.T) {
	l, err := Continuous([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	r := l.Rects[0]
	if r.W != 1 || r.H != 1 || r.X != 0 || r.Y != 0 {
		t.Errorf("rect = %+v, want unit square", r)
	}
	if math.Abs(l.Cost-2) > 1e-12 {
		t.Errorf("cost = %v, want 2", l.Cost)
	}
}

func TestContinuousEqualAreas(t *testing.T) {
	// 4 equal processors: optimal column-based layout is a 2x2 grid with
	// cost 4*(0.5+0.5) = 4.
	l, err := Continuous([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Cost-4) > 1e-9 {
		t.Errorf("cost = %v, want 4 (2x2 grid)", l.Cost)
	}
	if len(l.Columns) != 2 {
		t.Errorf("columns = %d, want 2", len(l.Columns))
	}
	var area float64
	for _, r := range l.Rects {
		area += r.Area()
		if math.Abs(r.Area()-0.25) > 1e-9 {
			t.Errorf("rect area = %v, want 0.25", r.Area())
		}
	}
	if math.Abs(area-1) > 1e-9 {
		t.Errorf("total area = %v", area)
	}
}

func TestContinuousAreasProportional(t *testing.T) {
	areas := []float64{4, 2, 1, 1}
	l, err := Continuous(areas)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, a := range areas {
		sum += a
	}
	for i, r := range l.Rects {
		want := areas[i] / sum
		if math.Abs(r.Area()-want) > 1e-9 {
			t.Errorf("processor %d area = %v, want %v", i, r.Area(), want)
		}
	}
}

func TestContinuousCoverageNoOverlap(t *testing.T) {
	areas := []float64{9, 5, 3, 2, 1, 1, 0.5}
	l, err := Continuous(areas)
	if err != nil {
		t.Fatal(err)
	}
	// Sample a grid of points; each must be inside exactly one rectangle.
	const g = 64
	for iy := 0; iy < g; iy++ {
		for ix := 0; ix < g; ix++ {
			x := (float64(ix) + 0.5) / g
			y := (float64(iy) + 0.5) / g
			count := 0
			for _, r := range l.Rects {
				if x >= r.X && x < r.X+r.W && y >= r.Y && y < r.Y+r.H {
					count++
				}
			}
			if count != 1 {
				t.Fatalf("point (%v,%v) covered %d times", x, y, count)
			}
		}
	}
}

func TestContinuousCostBeatsSingleColumn(t *testing.T) {
	// With many equal processors a single column is far from optimal.
	areas := make([]float64, 9)
	for i := range areas {
		areas[i] = 1
	}
	l, err := Continuous(areas)
	if err != nil {
		t.Fatal(err)
	}
	singleColumnCost := float64(len(areas))*1 + 1 // q*w + Σh = 9*1 + 1... = 10
	if l.Cost >= singleColumnCost {
		t.Errorf("DP cost %v not better than single column %v", l.Cost, singleColumnCost)
	}
	// 3x3 grid cost = 9*(1/3+1/3) = 6.
	if math.Abs(l.Cost-6) > 1e-9 {
		t.Errorf("cost = %v, want 6 (3x3 grid)", l.Cost)
	}
}

func TestContinuousValidation(t *testing.T) {
	for _, bad := range [][]float64{nil, {}, {0}, {-1}, {math.NaN()}, {1, math.Inf(1)}} {
		if _, err := Continuous(bad); err == nil {
			t.Errorf("expected error for %v", bad)
		}
	}
}

func TestDiscretizeTilesExactly(t *testing.T) {
	areas := []float64{10, 5, 3, 2}
	l, err := Continuous(areas)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{4, 7, 40, 60} {
		bl, err := l.Discretize(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := bl.Validate(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		total := 0
		for _, r := range bl.Rects {
			total += int(math.Round(r.Area()))
		}
		if total != n*n {
			t.Errorf("n=%d: total area %d, want %d", n, total, n*n)
		}
	}
}

func TestDiscretizeErrors(t *testing.T) {
	l, _ := Continuous([]float64{1})
	if _, err := l.Discretize(0); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := l.Discretize(-3); err == nil {
		t.Error("negative n should fail")
	}
}

func TestValidateCatchesBadLayouts(t *testing.T) {
	// Overlap.
	b := &BlockLayout{N: 2, Rects: []Rect{{0, 0, 2, 2}, {0, 0, 1, 1}}}
	if err := b.Validate(); err == nil {
		t.Error("overlap not caught")
	}
	// Hole.
	b = &BlockLayout{N: 2, Rects: []Rect{{0, 0, 2, 1}}}
	if err := b.Validate(); err == nil {
		t.Error("hole not caught")
	}
	// Out of bounds.
	b = &BlockLayout{N: 2, Rects: []Rect{{1, 1, 2, 2}}}
	if err := b.Validate(); err == nil {
		t.Error("out of bounds not caught")
	}
	// Non-integral.
	b = &BlockLayout{N: 2, Rects: []Rect{{0, 0, 1.5, 2}}}
	if err := b.Validate(); err == nil {
		t.Error("non-integral rect not caught")
	}
}

func TestRoundToSum(t *testing.T) {
	got := roundToSum([]float64{1, 1, 1}, 10)
	if got[0]+got[1]+got[2] != 10 {
		t.Errorf("sum != 10: %v", got)
	}
	got = roundToSum([]float64{0, 0}, 4)
	if got[0]+got[1] != 4 {
		t.Errorf("zero weights: %v", got)
	}
}

// Property: any positive area vector yields a valid discretised tiling with
// per-processor area within a column's rounding slack of proportional.
func TestLayoutProperty(t *testing.T) {
	f := func(raw []uint8, nRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		areas := make([]float64, len(raw))
		for i, r := range raw {
			areas[i] = float64(r%40) + 1
		}
		n := int(nRaw)%40 + int(math.Ceil(math.Sqrt(float64(len(areas))))) + 4
		l, err := Continuous(areas)
		if err != nil {
			return false
		}
		bl, err := l.Discretize(n)
		if err != nil {
			return false
		}
		return bl.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the DP never does worse than the single-column arrangement.
func TestDPNotWorseThanSingleColumn(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 10 {
			raw = raw[:10]
		}
		areas := make([]float64, len(raw))
		for i, r := range raw {
			areas[i] = float64(r%20) + 1
		}
		l, err := Continuous(areas)
		if err != nil {
			return false
		}
		single := float64(len(areas)) + 1 // q*1 + Σh_i where Σh_i = 1
		return l.Cost <= single+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOneDLayoutShape(t *testing.T) {
	l, err := OneD([]float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Columns) != 1 {
		t.Fatalf("columns = %d", len(l.Columns))
	}
	if l.Rects[0].W != 1 || l.Rects[1].W != 1 {
		t.Error("slabs must span the full width")
	}
	if math.Abs(l.Rects[0].H-0.75) > 1e-12 || math.Abs(l.Rects[1].H-0.25) > 1e-12 {
		t.Errorf("heights = %v, %v", l.Rects[0].H, l.Rects[1].H)
	}
	// Cost = p + 1 for the unit square.
	if math.Abs(l.Cost-3) > 1e-12 {
		t.Errorf("cost = %v, want 3", l.Cost)
	}
	for _, bad := range [][]float64{nil, {0}, {-1}, {math.NaN()}} {
		if _, err := OneD(bad); err == nil {
			t.Errorf("expected error for %v", bad)
		}
	}
}

func TestOneDCommVolumeWorseThanColumnBased(t *testing.T) {
	areas := make([]float64, 24)
	for i := range areas {
		areas[i] = float64(1 + i%5)
	}
	oneD, err := OneD(areas)
	if err != nil {
		t.Fatal(err)
	}
	col, err := Continuous(areas)
	if err != nil {
		t.Fatal(err)
	}
	if oneD.Cost <= col.Cost {
		t.Errorf("1D cost %v should exceed column-based %v at p=24", oneD.Cost, col.Cost)
	}
	// 1D cost is exactly p+1; column-based for 24 processors is ≈ 2·√24 ≈ 9.8.
	if math.Abs(oneD.Cost-25) > 1e-9 {
		t.Errorf("1D cost = %v, want 25", oneD.Cost)
	}
	if col.Cost > 13 {
		t.Errorf("column-based cost = %v, want ≈10", col.Cost)
	}
}

// TestDiscretize1D: a one-dimensional layout discretises into valid
// full-width block slabs.
func TestDiscretize1D(t *testing.T) {
	l, err := OneD([]float64{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := l.Discretize(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.Validate(); err != nil {
		t.Error(err)
	}
}
