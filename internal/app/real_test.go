package app

import (
	"testing"

	"fpmpart/internal/bench"
	"fpmpart/internal/blas"
	"fpmpart/internal/fpm"
	"fpmpart/internal/layout"
	"fpmpart/internal/matrix"
	"fpmpart/internal/partition"
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

// ones is the slowdown vector of n unmodified processes.
func ones(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
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

	res, err := RunReal(bl, b, a, bm, c, ones(len(bl.Rects)))
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

	if _, err := RunReal(bl, b, a, bm, c, ones(len(bl.Rects))); err != nil {
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
	if _, err := RunReal(bl, 0, good, good, good, []float64{1}); err == nil {
		t.Error("zero block size accepted")
	}
	small := matrix.MustNew(4, 4)
	if _, err := RunReal(bl, 4, small, good, good, []float64{1}); err == nil {
		t.Error("wrong A shape accepted")
	}
	if _, err := RunReal(bl, 4, good, good, nil, []float64{1}); err == nil {
		t.Error("nil C accepted")
	}
	broken := &layout.BlockLayout{N: 2, Rects: []layout.Rect{{X: 0, Y: 0, W: 1, H: 1}}}
	if _, err := RunReal(broken, 4, good, good, good, []float64{1}); err == nil {
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
	if _, err := RunReal(bl, b, a, bm, c, ones(len(bl.Rects))); err != nil {
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

func TestRunRealRateLimitedCorrectness(t *testing.T) {
	const n, b = 6, 8
	bl := realLayout(t, []float64{2, 1, 1}, n)
	dim := n * b
	a := matrix.MustNew(dim, dim)
	bm := matrix.MustNew(dim, dim)
	a.FillRandom(1)
	bm.FillRandom(2)
	c := matrix.MustNew(dim, dim)
	res, err := RunReal(bl, b, a, bm, c, []float64{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.MustNew(dim, dim)
	if err := blas.Gemm(1, a, bm, 0, want); err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(c, want); d > 1e-3 {
		t.Errorf("rate-limited result differs by %v", d)
	}
	if res.Iterations != n {
		t.Errorf("iterations = %d", res.Iterations)
	}
}

func TestRunRealRateLimitedValidation(t *testing.T) {
	bl := realLayout(t, []float64{1, 1}, 4)
	dim := 4 * 4
	m := matrix.MustNew(dim, dim)
	if _, err := RunReal(bl, 4, m, m, m, []float64{1}); err == nil {
		t.Error("slowdown count mismatch accepted")
	}
	if _, err := RunReal(bl, 4, m, m, m, []float64{0.5, 1}); err == nil {
		t.Error("slowdown < 1 accepted")
	}
	if _, err := RunReal(bl, 0, m, m, m, []float64{1, 1}); err == nil {
		t.Error("zero block size accepted")
	}
}

func TestRealResultImbalance(t *testing.T) {
	r := RealResult{PerProcessSeconds: []float64{2, 4, 0}}
	if got := r.Imbalance(); got != 1 {
		t.Errorf("imbalance = %v, want 1 (idle process ignored)", got)
	}
	if (RealResult{}).Imbalance() != 0 {
		t.Error("empty result imbalance should be 0")
	}
}

// TestClosedLoopRealFPM exercises the paper's whole methodology on real
// computation: two "device classes" (normal and 4x-slowed workers) are
// benchmarked with the wall clock, their FPMs drive the partitioner, and
// the resulting layout executes for real and computes the whole product.
func TestClosedLoopRealFPM(t *testing.T) {
	const (
		b    = 32 // model-building block size: keeps the burst benchmarks cheap
		runB = 64 // execution block size: large enough that compute, not the
		// sleep/scheduler granularity (~1ms per iteration), dominates the
		// packed kernel's per-step time
		n        = 10
		slowdown = 4.0
	)
	// Benchmark both device classes with real timings. Individual GEMM
	// calls at these sizes take microseconds — too jittery to time — so
	// each observation averages a burst of calls.
	mkKernel := func(name string, slow float64) *bench.FuncKernel {
		real := &bench.RealGEMMKernel{BlockSize: b, Workers: 1}
		return &bench.FuncKernel{KernelName: name, F: func(x float64) (float64, error) {
			const burst = 20
			var total float64
			for i := 0; i < burst; i++ {
				dt, err := real.Run(x)
				if err != nil {
					return 0, err
				}
				total += dt
			}
			return total / burst * slow, nil
		}}
	}
	sizes, err := fpm.Grid(4, 144, 5, "geometric")
	if err != nil {
		t.Fatal(err)
	}
	opts := bench.Options{RelErr: 0.1, MinReps: 3, MaxReps: 30, Robust: true}
	fast, _, err := bench.BuildModel(mkKernel("fast", 1), sizes, opts)
	if err != nil {
		t.Fatal(err)
	}
	slow, _, err := bench.BuildModel(mkKernel("slow", slowdown), sizes, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Partition the n×n problem between one fast and one slow process.
	devs := []partition.Device{
		{Name: "fast", Model: fast},
		{Name: "slow", Model: slow},
	}
	res, err := partition.FPM(devs, n*n, partition.FPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	u := res.Units()
	// The fast device must get clearly more work. The exact share exceeds
	// the 4x speed ratio: equal-time partitioning on a rising s(x) gives the
	// fast device a super-proportional share, and the packed kernel's speed
	// function rises steeply over these sizes (packing overhead amortises) —
	// more so under race/coverage instrumentation, which slows the Go packing
	// code but not the assembly micro-kernel. So bound the ratio loosely;
	// FPM-over-even wall time is the benchmark's workerd.fpm_over_even_x,
	// not a go test assertion.
	ratio := float64(u[0]) / float64(u[1])
	if ratio < 2 || ratio > 40 {
		t.Fatalf("FPM ratio = %v, want >≈4 (units %v)", ratio, u)
	}

	// The FPM split executes: every block of C is computed.
	bl := realLayout(t, []float64{float64(u[0]), float64(u[1])}, n)
	dim := n * runB
	a := matrix.MustNew(dim, dim)
	bm := matrix.MustNew(dim, dim)
	a.FillRandom(3)
	bm.FillRandom(4)
	c := matrix.MustNew(dim, dim)
	rr, err := RunReal(bl, runB, a, bm, c, []float64{1, slowdown})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Iterations != n {
		t.Errorf("iterations = %d, want %d", rr.Iterations, n)
	}
	want := matrix.MustNew(dim, dim)
	if err := blas.Gemm(1, a, bm, 0, want); err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(c, want); d > 1e-3 {
		t.Errorf("FPM-partitioned result differs from the direct product by %v", d)
	}
}
