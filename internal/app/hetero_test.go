package app

import (
	"math"
	"testing"

	"fpmpart/internal/bench"
	"fpmpart/internal/blas"
	"fpmpart/internal/fpm"
	"fpmpart/internal/layout"
	"fpmpart/internal/matrix"
	"fpmpart/internal/partition"
)

func TestRunRealRateLimitedCorrectness(t *testing.T) {
	const n, b = 6, 8
	bl := realLayout(t, []float64{2, 1, 1}, n)
	dim := n * b
	a := matrix.MustNew(dim, dim)
	bm := matrix.MustNew(dim, dim)
	a.FillRandom(1)
	bm.FillRandom(2)
	c := matrix.MustNew(dim, dim)
	res, err := RunRealRateLimited(bl, b, a, bm, c, []float64{1, 2, 1})
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
	if _, err := RunRealRateLimited(bl, 4, m, m, m, []float64{1}); err == nil {
		t.Error("slowdown count mismatch accepted")
	}
	if _, err := RunRealRateLimited(bl, 4, m, m, m, []float64{0.5, 1}); err == nil {
		t.Error("slowdown < 1 accepted")
	}
	if _, err := RunRealRateLimited(bl, 0, m, m, m, []float64{1, 1}); err == nil {
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
// the resulting layout's real run is far better balanced than an even
// split. Sleep-based slowdown makes the heterogeneity deterministic enough
// for CI.
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
	// code but not the assembly micro-kernel. So bound the ratio loosely and
	// let the makespan comparison below be the real closed-loop assertion.
	ratio := float64(u[0]) / float64(u[1])
	if ratio < 2 || ratio > 40 {
		t.Fatalf("FPM ratio = %v, want >≈4 (units %v)", ratio, u)
	}

	runWith := func(areas []float64) RealResult {
		t.Helper()
		l, err := layout.Continuous(areas)
		if err != nil {
			t.Fatal(err)
		}
		bl, err := l.Discretize(n)
		if err != nil {
			t.Fatal(err)
		}
		dim := n * runB
		a := matrix.MustNew(dim, dim)
		bm := matrix.MustNew(dim, dim)
		a.FillRandom(3)
		bm.FillRandom(4)
		c := matrix.MustNew(dim, dim)
		rr, err := RunRealRateLimited(bl, runB, a, bm, c, []float64{1, slowdown})
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}

	// The even split leaves the slow worker ≈4x behind, so its slowest
	// process dominates; the FPM split shortens that critical path. One
	// ~25 ms wall-clock makespan (slowest per-process time) is at the mercy
	// of the scheduler — a third of single FPM runs on a loaded 2-core host
	// overshoot their ten sub-millisecond sleeps past the threshold — and
	// noise only ever adds time, so compare each strategy's best of five
	// runs, coarsely.
	makespan := func(areas []float64) float64 {
		best := math.Inf(1)
		for run := 0; run < 5; run++ {
			var m float64
			for _, s := range runWith(areas).PerProcessSeconds {
				m = math.Max(m, s)
			}
			best = math.Min(best, m)
		}
		return best
	}
	fpmSpan := makespan([]float64{float64(u[0]), float64(u[1])})
	evenSpan := makespan([]float64{1, 1})
	if fpmSpan > 0.8*evenSpan {
		t.Errorf("FPM makespan %v not clearly better than even split %v", fpmSpan, evenSpan)
	}
}
