package app

import (
	"testing"

	"fpmpart/internal/blas"
	"fpmpart/internal/layout"
	"fpmpart/internal/matrix"
)

// realLayout builds a heterogeneous layout for areas on an n-block matrix.
func realLayout(t *testing.T, areas []float64, n int) *layout.BlockLayout {
	t.Helper()
	l, err := layout.Continuous(areas)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := l.Discretize(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.Validate(); err != nil {
		t.Fatal(err)
	}
	return bl
}

func TestRunRealMatchesDirectGemm(t *testing.T) {
	const (
		n = 6 // blocks
		b = 8 // elements per block
	)
	bl := realLayout(t, []float64{4, 2, 1, 1}, n)
	dim := n * b
	a := matrix.MustNew(dim, dim)
	bm := matrix.MustNew(dim, dim)
	a.FillRandom(1)
	bm.FillRandom(2)
	c := matrix.MustNew(dim, dim)

	res, err := RunReal(bl, b, a, bm, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != n {
		t.Errorf("iterations = %d", res.Iterations)
	}
	want := matrix.MustNew(dim, dim)
	if err := blas.Gemm(1, a, bm, 0, want); err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(c, want); d > 1e-3 {
		t.Errorf("distributed result differs from direct GEMM by %v", d)
	}
	// Per-process times are recorded for every rectangle with work.
	for i, s := range res.PerProcessSeconds {
		if bl.Rects[i].Area() > 0 && s <= 0 {
			t.Errorf("process %d recorded no time", i)
		}
	}
	if res.WallSeconds <= 0 {
		t.Error("no wall time recorded")
	}
}

func TestRunRealAccumulatesIntoC(t *testing.T) {
	const n, b = 4, 4
	bl := realLayout(t, []float64{1, 1}, n)
	dim := n * b
	a := matrix.MustNew(dim, dim)
	bm := matrix.MustNew(dim, dim)
	a.FillRandom(3)
	bm.FillRandom(4)
	c := matrix.MustNew(dim, dim)
	c.FillConstant(1) // pre-existing C contents must be accumulated into

	if _, err := RunReal(bl, b, a, bm, c); err != nil {
		t.Fatal(err)
	}
	want := matrix.MustNew(dim, dim)
	want.FillConstant(1)
	if err := blas.Gemm(1, a, bm, 1, want); err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(c, want); d > 1e-3 {
		t.Errorf("accumulation differs by %v", d)
	}
}

func TestRunRealValidation(t *testing.T) {
	bl := realLayout(t, []float64{1}, 2)
	good := matrix.MustNew(2*4, 2*4)
	if _, err := RunReal(bl, 0, good, good, good); err == nil {
		t.Error("zero block size accepted")
	}
	small := matrix.MustNew(4, 4)
	if _, err := RunReal(bl, 4, small, good, good); err == nil {
		t.Error("wrong A shape accepted")
	}
	if _, err := RunReal(bl, 4, good, good, nil); err == nil {
		t.Error("nil C accepted")
	}
	broken := &layout.BlockLayout{N: 2, Rects: []layout.Rect{{X: 0, Y: 0, W: 1, H: 1}}}
	if _, err := RunReal(broken, 4, good, good, good); err == nil {
		t.Error("non-covering layout accepted")
	}
}

func TestRunRealManyProcesses(t *testing.T) {
	// A 24-process layout like the paper's node, on a tiny matrix.
	areas := make([]float64, 24)
	for i := range areas {
		areas[i] = float64(1 + i%5)
	}
	const n, b = 12, 4
	bl := realLayout(t, areas, n)
	dim := n * b
	a := matrix.MustNew(dim, dim)
	bm := matrix.MustNew(dim, dim)
	a.FillRandom(5)
	bm.FillRandom(6)
	c := matrix.MustNew(dim, dim)
	if _, err := RunReal(bl, b, a, bm, c); err != nil {
		t.Fatal(err)
	}
	want := matrix.MustNew(dim, dim)
	if err := blas.Gemm(1, a, bm, 0, want); err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(c, want); d > 1e-2 {
		t.Errorf("24-process result differs by %v", d)
	}
}
