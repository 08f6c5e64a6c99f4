package stencil

import (
	"math"
	"testing"
	"testing/quick"

	"fpmpart/internal/fpm"
	"fpmpart/internal/partition"
)

func TestGridBasics(t *testing.T) {
	g, err := NewGrid(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	g.Set(2, 3, 7)
	if g.At(2, 3) != 7 {
		t.Error("Set/At broken")
	}
	c := g.Clone()
	c.Set(0, 0, 9)
	if g.At(0, 0) == 9 {
		t.Error("clone shares storage")
	}
	for _, bad := range [][2]int{{0, 5}, {5, 0}, {-1, 1}} {
		if _, err := NewGrid(bad[0], bad[1]); err == nil {
			t.Errorf("NewGrid%v accepted", bad)
		}
	}
}

func TestSequentialRelaxationSmooths(t *testing.T) {
	g, _ := NewGrid(32, 32)
	g.FillSine()
	out, err := RunSequential(g, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Relaxation contracts the field's range.
	rng := func(gr *Grid) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range gr.Data {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return hi - lo
	}
	if rng(out) >= rng(g) {
		t.Errorf("range did not contract: %v -> %v", rng(g), rng(out))
	}
	if _, err := RunSequential(g, -1); err == nil {
		t.Error("negative iterations accepted")
	}
	// Zero iterations is the identity.
	same, err := RunSequential(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(same, g) != 0 {
		t.Error("0 iterations changed the grid")
	}
}

func TestRunRealMatchesSequential(t *testing.T) {
	g, _ := NewGrid(40, 24)
	g.FillSine()
	want, err := RunSequential(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := RunReal(g, []int{13, 20, 7}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(got, want); d != 0 {
		t.Errorf("partitioned result differs by %v (must be exact)", d)
	}
	if res.Iterations != 7 || res.Makespan() <= 0 {
		t.Errorf("result metadata %+v", res)
	}
}

func TestRunRealValidation(t *testing.T) {
	g, _ := NewGrid(10, 10)
	cases := []struct {
		bands []int
		slow  []float64
		iters int
	}{
		{nil, nil, 1},
		{[]int{5, 4}, nil, 1},          // sum != rows
		{[]int{-1, 11}, nil, 1},        // negative band
		{[]int{5, 5}, []float64{1}, 1}, // slowdown length
		{[]int{5, 5}, []float64{0}, 1}, // slowdown < 1... needs len 2
		{[]int{10}, nil, -1},           // negative iters
	}
	for i, c := range cases {
		if c.slow != nil && len(c.slow) == 1 && len(c.bands) == 2 {
			// keep as-is: length mismatch case
		}
		if _, _, err := RunReal(g, c.bands, c.iters, c.slow); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, _, err := RunReal(g, []int{5, 5}, 1, []float64{0.5, 1}); err == nil {
		t.Error("slowdown < 1 accepted")
	}
}

func TestRunRealWithZeroBand(t *testing.T) {
	g, _ := NewGrid(12, 8)
	g.FillSine()
	want, _ := RunSequential(g, 3)
	got, _, err := RunReal(g, []int{12, 0}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(got, want) != 0 {
		t.Error("zero band broke the computation")
	}
}

// Property: the maximum principle — relaxation never exceeds the initial
// field's bounds.
func TestMaximumPrincipleProperty(t *testing.T) {
	f := func(seed uint8, iters uint8) bool {
		g, _ := NewGrid(16, 16)
		for i := range g.Data {
			g.Data[i] = math.Sin(float64(seed) + 0.37*float64(i))
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range g.Data {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		out, _, err := RunReal(g, []int{5, 7, 4}, int(iters%10)+1, nil)
		if err != nil {
			return false
		}
		for _, v := range out.Data {
			if v < lo-1e-12 || v > hi+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestFPMBalancedBands closes the loop with the partitioner: rows are
// distributed by per-band FPMs (row counts as problem size), the 4x
// heterogeneity yields a 4:1 split, and the banded run on that split, with
// the slow band slowed 4x, reproduces the sequential sweep bit for bit.
// Whether FPM beats the even split in wall time is a benchmark question.
func TestFPMBalancedBands(t *testing.T) {
	const (
		rows, cols = 240, 64
		iters      = 6
		slowdown   = 4.0
	)
	// Analytic FPMs: band time proportional to rows, slow device 4x.
	fast := partition.Device{Name: "fast", Model: mustConst(t, 1000)}
	slow := partition.Device{Name: "slow", Model: mustConst(t, 1000/slowdown)}
	res, err := partition.FPM([]partition.Device{fast, slow}, rows, partition.FPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bands := res.Units()
	if r := float64(bands[0]) / float64(bands[1]); r < 3.5 || r > 4.5 {
		t.Fatalf("band ratio = %v, want 4 (%v)", r, bands)
	}

	g, _ := NewGrid(rows, cols)
	g.FillSine()
	want, err := RunSequential(g, iters)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunReal(g, bands, iters, []float64{1, slowdown})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("banded run differs from sequential at element %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func mustConst(t *testing.T, s float64) fpm.SpeedFunction {
	t.Helper()
	c, err := fpm.NewConstant(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
