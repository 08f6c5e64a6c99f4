package app

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fpmpart/internal/bench"
	"fpmpart/internal/blas"
	"fpmpart/internal/fpm"
	"fpmpart/internal/layout"
	"fpmpart/internal/matrix"
	"fpmpart/internal/partition"
)

// realResult reports a real (actually computed) run of runReal.
type realResult struct {
	// PerProcessSeconds is each process's accumulated GEMM time.
	PerProcessSeconds []float64
	// WallSeconds is the total elapsed time.
	WallSeconds float64
	// Iterations is the number of pivot steps executed.
	Iterations int
}

// runReal executes the heterogeneous column-based blocked matrix
// multiplication for real: it computes C += A·B, where the three N×N
// matrices (N = bl.N × b elements) are partitioned according to bl, one
// goroutine per rectangle standing in for an MPI process. At each iteration
// k the pivot column A(:,k) and pivot row B(k,:) are "broadcast" (shared
// via views — the algorithm only reads them) and every process updates its
// rectangle of C with one GEMM call, followed by a barrier.
//
// The result is bit-for-bit the blocked product; tests verify it against a
// direct GEMM. It returns per-process compute times, which on a real
// heterogeneous machine would be the input to FPM construction.
//
// The goroutines all run at the host CPU's speed, so slowdowns (one factor
// >= 1 per rectangle of bl) emulate slower devices: a process with slowdown
// s sleeps after each step until the step took s times its compute time,
// giving it 1/s of the host kernel's speed. A factor of 1 is unmodified.
func runReal(bl *layout.BlockLayout, b int, a, bm, c *matrix.Dense, slowdowns []float64) (realResult, error) {
	if b <= 0 {
		return realResult{}, fmt.Errorf("app: invalid block size %d", b)
	}
	if err := bl.Validate(); err != nil {
		return realResult{}, err
	}
	if len(slowdowns) != len(bl.Rects) {
		return realResult{}, fmt.Errorf("app: %d slowdowns for %d rectangles", len(slowdowns), len(bl.Rects))
	}
	for i, s := range slowdowns {
		if s < 1 {
			return realResult{}, fmt.Errorf("app: slowdown %v < 1 at process %d", s, i)
		}
	}
	n := bl.N
	dim := n * b
	for name, m := range map[string]*matrix.Dense{"A": a, "B": bm, "C": c} {
		if m == nil || m.Rows != dim || m.Cols != dim {
			return realResult{}, fmt.Errorf("app: matrix %s must be %dx%d", name, dim, dim)
		}
	}

	res := realResult{PerProcessSeconds: make([]float64, len(bl.Rects)), Iterations: n}
	start := time.Now()
	var mu sync.Mutex
	for k := 0; k < n; k++ {
		var wg sync.WaitGroup
		errs := make([]error, len(bl.Rects))
		for i, r := range bl.Rects {
			if r.W == 0 || r.H == 0 {
				continue
			}
			wg.Add(1)
			go func(i int, r layout.Rect) {
				defer wg.Done()
				t0 := time.Now()
				// A's pivot sub-column for this rectangle's rows.
				av, err := a.View(int(r.Y)*b, k*b, int(r.H)*b, b)
				if err != nil {
					errs[i] = err
					return
				}
				// B's pivot sub-row for this rectangle's columns.
				bv, err := bm.View(k*b, int(r.X)*b, b, int(r.W)*b)
				if err != nil {
					errs[i] = err
					return
				}
				cv, err := c.View(int(r.Y)*b, int(r.X)*b, int(r.H)*b, int(r.W)*b)
				if err != nil {
					errs[i] = err
					return
				}
				// Each "process" is one rank: single-threaded packed GEMM
				// on its strided C rectangle.
				if errs[i] = blas.GemmPacked(1, av, bv, 1, cv, blas.DefaultConfig, 1); errs[i] != nil {
					return
				}
				if s := slowdowns[i]; s > 1 {
					time.Sleep(time.Duration(float64(time.Since(t0)) * (s - 1)))
				}
				mu.Lock()
				res.PerProcessSeconds[i] += time.Since(t0).Seconds()
				mu.Unlock()
			}(i, r)
		}
		wg.Wait() // barrier: the broadcast of iteration k+1 awaits all updates
		for _, err := range errs {
			if err != nil {
				return realResult{}, err
			}
		}
	}
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

// Imbalance returns max/min - 1 over the processes that recorded time.
func (r realResult) Imbalance() float64 {
	lo, hi := -1.0, 0.0
	for _, s := range r.PerProcessSeconds {
		if s <= 0 {
			continue
		}
		if lo < 0 || s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if lo <= 0 {
		return 0
	}
	return hi/lo - 1
}

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

	res, err := runReal(bl, b, a, bm, c, ones(len(bl.Rects)))
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

	if _, err := runReal(bl, b, a, bm, c, ones(len(bl.Rects))); err != nil {
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
	if _, err := runReal(bl, 0, good, good, good, []float64{1}); err == nil {
		t.Error("zero block size accepted")
	}
	small := matrix.MustNew(4, 4)
	if _, err := runReal(bl, 4, small, good, good, []float64{1}); err == nil {
		t.Error("wrong A shape accepted")
	}
	if _, err := runReal(bl, 4, good, good, nil, []float64{1}); err == nil {
		t.Error("nil C accepted")
	}
	broken := &layout.BlockLayout{N: 2, Rects: []layout.Rect{{X: 0, Y: 0, W: 1, H: 1}}}
	if _, err := runReal(broken, 4, good, good, good, []float64{1}); err == nil {
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
	if _, err := runReal(bl, b, a, bm, c, ones(len(bl.Rects))); err != nil {
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
	res, err := runReal(bl, b, a, bm, c, []float64{1, 2, 1})
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
	if _, err := runReal(bl, 4, m, m, m, []float64{1}); err == nil {
		t.Error("slowdown count mismatch accepted")
	}
	if _, err := runReal(bl, 4, m, m, m, []float64{0.5, 1}); err == nil {
		t.Error("slowdown < 1 accepted")
	}
	if _, err := runReal(bl, 0, m, m, m, []float64{1, 1}); err == nil {
		t.Error("zero block size accepted")
	}
}

func TestRealResultImbalance(t *testing.T) {
	r := realResult{PerProcessSeconds: []float64{2, 4, 0}}
	if got := r.Imbalance(); got != 1 {
		t.Errorf("imbalance = %v, want 1 (idle process ignored)", got)
	}
	if (realResult{}).Imbalance() != 0 {
		t.Error("empty result imbalance should be 0")
	}
}

// TestClosedLoopRealFPM exercises the paper's whole methodology on real
// computation: the packed kernel is benchmarked with the wall clock, its FPM
// and the same FPM slowed 4x describe two "device classes" (normal and
// slowed workers), which drive the partitioner, and the resulting layout
// executes for real and computes the whole product. Both classes come from
// one measured model: two benchmark runs would be two samples of the host's
// load, and their ratio would measure the host rather than the partitioner.
func TestClosedLoopRealFPM(t *testing.T) {
	const (
		b    = 32 // model-building block size: keeps the burst benchmarks cheap
		runB = 64 // execution block size: large enough that compute, not the
		// sleep/scheduler granularity (~1ms per iteration), dominates the
		// packed kernel's per-step time
		n        = 10
		slowdown = 4.0
	)
	// Benchmark the kernel with real timings. Individual GEMM calls at
	// these sizes take microseconds — too jittery to time — so each
	// observation averages a burst of calls.
	real := &bench.RealGEMMKernel{BlockSize: b, Workers: 1}
	kernel := &bench.FuncKernel{KernelName: "fast", F: func(x float64) (float64, error) {
		const burst = 20
		var total float64
		for i := 0; i < burst; i++ {
			dt, err := real.Run(x)
			if err != nil {
				return 0, err
			}
			total += dt
		}
		return total / burst, nil
	}}
	sizes, err := fpm.Grid(4, 144, 5, "geometric")
	if err != nil {
		t.Fatal(err)
	}
	opts := bench.Options{RelErr: 0.1, MaxReps: 30, Robust: true}
	fast, _, err := bench.BuildModel(kernel, sizes, opts)
	if err != nil {
		t.Fatal(err)
	}
	slow := fpm.Scaled{Base: fast, Factor: 1 / slowdown}

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
	rr, err := runReal(bl, runB, a, bm, c, []float64{1, slowdown})
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
