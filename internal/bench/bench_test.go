package bench

import (
	"errors"
	"math"
	"testing"

	"fpmpart/internal/fpm"
	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/stats"
)

func TestBuildModelDeterministicKernel(t *testing.T) {
	k := &FuncKernel{KernelName: "flat", F: func(x float64) (float64, error) { return x / 100, nil }}
	m, rep, err := BuildModel(k, []float64{10, 20, 40}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{10, 25, 40} {
		if got := m.Speed(x); math.Abs(got-100) > 1e-9 {
			t.Errorf("speed(%v) = %v, want 100", x, got)
		}
	}
	if rep.Kernel != "flat" || len(rep.Points) != 3 {
		t.Errorf("report %+v", rep)
	}
	// Deterministic data converges at MinReps.
	for _, p := range rep.Points {
		if p.Reps != 3 || !p.Converged {
			t.Errorf("point %+v should converge in 3 reps", p)
		}
	}
	if rep.TotalRuns != 9 {
		t.Errorf("total runs = %d", rep.TotalRuns)
	}
	if rep.TotalTime <= 0 {
		t.Error("total time not accumulated")
	}
}

func TestBuildModelWithNoiseConverges(t *testing.T) {
	noise := stats.NewNoise(11, 0.03)
	k := &FuncKernel{KernelName: "noisy", F: func(x float64) (float64, error) {
		return noise.Perturb(x / 50), nil
	}}
	// One shared noise stream is not safe for concurrent Run calls, so the
	// points are measured sequentially.
	m, rep, err := BuildModel(k, []float64{100, 200}, Options{RelErr: 0.02, MaxReps: 500, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Points {
		if !p.Converged {
			t.Errorf("point %v did not converge", p.Size)
		}
		if p.Reps < 3 {
			t.Errorf("point %v suspiciously few reps", p.Size)
		}
	}
	if got := m.Speed(150); math.Abs(got-50) > 2.5 {
		t.Errorf("speed = %v, want ≈50", got)
	}
}

func TestBuildModelRespectsMaxSize(t *testing.T) {
	k := &FuncKernel{KernelName: "lim", Max: 50, F: func(x float64) (float64, error) { return x, nil }}
	m, rep, err := BuildModel(k, []float64{10, 40, 100, 200}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Errorf("points = %d, want 2 (beyond-limit skipped)", len(rep.Points))
	}
	_, hi := m.Domain()
	if hi != 40 {
		t.Errorf("domain hi = %v, want 40", hi)
	}
	// All sizes beyond limit => error.
	if _, _, err := BuildModel(k, []float64{60, 70}, Options{}); err == nil {
		t.Error("expected all-beyond-limit error")
	}
}

func TestBuildModelErrors(t *testing.T) {
	ok := &FuncKernel{KernelName: "ok", F: func(x float64) (float64, error) { return x, nil }}
	if _, _, err := BuildModel(nil, []float64{1}, Options{}); err == nil {
		t.Error("nil kernel")
	}
	if _, _, err := BuildModel(ok, nil, Options{}); err == nil {
		t.Error("no sizes")
	}
	if _, _, err := BuildModel(ok, []float64{-1}, Options{}); err == nil {
		t.Error("bad size")
	}
	sentinel := errors.New("boom")
	bad := &FuncKernel{KernelName: "bad", F: func(x float64) (float64, error) { return 0, sentinel }}
	if _, _, err := BuildModel(bad, []float64{1}, Options{}); !errors.Is(err, sentinel) {
		t.Errorf("kernel error not propagated: %v", err)
	}
}

func TestSocketKernel(t *testing.T) {
	s := hw.NewOpteron8439SE()
	k := &SocketKernel{Socket: s, Active: 6, BlockSize: 640}
	t1, err := k.Run(600)
	if err != nil {
		t.Fatal(err)
	}
	want := s.KernelTime(600, 6, 640)
	if t1 != want {
		t.Errorf("noiseless time %v != model %v", t1, want)
	}
	if k.MaxSize() != 0 {
		t.Error("socket kernel should be unbounded")
	}
	if k.Name() == "" {
		t.Error("empty name")
	}
	if _, err := k.Run(-1); err == nil {
		t.Error("negative size should error")
	}
	// Contention factor slows it down.
	k2 := &SocketKernel{Socket: s, Active: 6, BlockSize: 640, SpeedFactor: 0.5}
	t2, _ := k2.Run(600)
	if math.Abs(t2-2*t1) > 1e-9 {
		t.Errorf("speed factor 0.5 should double time: %v vs %v", t2, t1)
	}
}

func TestGPUKernelInCoreLimit(t *testing.T) {
	g := hw.NewGTX680()
	k := &GPUKernel{GPU: g, Version: gpukernel.V1, BlockSize: 640, ElemBytes: 4}
	limit := k.MaxSize()
	// x + 2√x <= capacity(=1310): limit ≈ 1240.
	if limit < 1150 || limit > 1310 {
		t.Errorf("in-core limit = %v blocks", limit)
	}
	// Out-of-core kernels have no limit.
	k.OutOfCore = true
	if k.MaxSize() != 0 {
		t.Error("out-of-core kernel should be unbounded")
	}
}

func TestGPUKernelRunMatchesDirectInvocation(t *testing.T) {
	g := hw.NewGTX680()
	k := &GPUKernel{GPU: g, Version: gpukernel.V2, BlockSize: 640, ElemBytes: 4, OutOfCore: true}
	got, err := k.Run(900) // 30x30 exactly
	if err != nil {
		t.Fatal(err)
	}
	bd, err := gpukernel.Time(gpukernel.V2, gpukernel.Invocation{
		GPU: g, BlockSize: 640, ElemBytes: 4, Rows: 30, Cols: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-bd.Makespan) > 1e-12 {
		t.Errorf("Run(900) = %v, direct = %v", got, bd.Makespan)
	}
	if _, err := k.Run(0); err == nil {
		t.Error("zero size should error")
	}
	// Contention factor.
	kc := &GPUKernel{GPU: g, Version: gpukernel.V2, BlockSize: 640, ElemBytes: 4, OutOfCore: true, SpeedFactor: 0.89}
	tc, _ := kc.Run(900)
	if math.Abs(tc-got/0.89) > 1e-9 {
		t.Errorf("contended time %v, want %v", tc, got/0.89)
	}
}

func TestEndToEndSocketFPM(t *testing.T) {
	s := hw.NewOpteron8439SE()
	noise := stats.NewNoise(3, 0.01)
	k := &SocketKernel{Socket: s, Active: 6, BlockSize: 640, Noise: noise}
	sizes, err := fpm.Grid(30, 1200, 12, "geometric")
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := BuildModel(k, sizes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The model must reproduce the analytic socket speed within noise. The
	// FPM is in blocks/second; the analytic rate is flops/second.
	for _, x := range []float64{60, 300, 1200} {
		want := s.SocketRate(x, 6, 640)
		got := m.Speed(x) * hw.BlockFlops(640)
		if math.Abs(got-want)/want > 0.08 {
			t.Errorf("model speed(%v) = %v, analytic %v", x, got, want)
		}
	}
}

func TestRealGEMMKernel(t *testing.T) {
	k := &RealGEMMKernel{BlockSize: 16, Workers: 1, MaxBlocks: 64}
	if k.Name() == "" {
		t.Error("empty name")
	}
	if k.MaxSize() != 64 {
		t.Error("max size wrong")
	}
	t1, err := k.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if t1 <= 0 {
		t.Fatalf("non-positive wall time %v", t1)
	}
	// More work takes more time (loose: wall-clock noise).
	var big, small float64
	for i := 0; i < 5; i++ {
		a, err := k.Run(4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := k.Run(64)
		if err != nil {
			t.Fatal(err)
		}
		small += a
		big += b
	}
	if big <= small {
		t.Errorf("16x the work not slower: %v vs %v", big, small)
	}
	// Bad inputs.
	if _, err := k.Run(0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := (&RealGEMMKernel{BlockSize: 0}).Run(4); err == nil {
		t.Error("zero block size accepted")
	}
}

func TestRealGEMMKernelBuildsModel(t *testing.T) {
	// End to end: a real wall-clock FPM of this host.
	k := &RealGEMMKernel{BlockSize: 16, Workers: 2}
	sizes, err := fpm.Grid(2, 32, 4, "geometric")
	if err != nil {
		t.Fatal(err)
	}
	m, rep, err := BuildModel(k, sizes, Options{RelErr: 0.2, MaxReps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRuns < 8 {
		t.Errorf("too few runs: %d", rep.TotalRuns)
	}
	for _, x := range []float64{2, 10, 32} {
		if m.Speed(x) <= 0 {
			t.Errorf("speed(%v) = %v", x, m.Speed(x))
		}
	}
}
