package bench

import (
	"strings"
	"testing"
	"time"

	"fpmpart/internal/fpm"
	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/stats"
)

// Parallel model building must be bit-identical to sequential building: the
// per-point seeding (stats.Noise.ForPoint) makes every grid point's noise
// stream independent of execution order.

func testSocketKernel(seed int64, sigma float64) *SocketKernel {
	node := hw.NewIGNode()
	return &SocketKernel{
		Socket: node.Sockets[0], Active: node.Sockets[0].Cores,
		BlockSize: node.BlockSize,
		Noise:     stats.NewNoise(seed, sigma),
	}
}

func testGPUKernel(seed int64, sigma float64) *GPUKernel {
	node := hw.NewIGNode()
	return &GPUKernel{
		GPU: node.GPUs[len(node.GPUs)-1], Version: gpukernel.V2,
		BlockSize: node.BlockSize, ElemBytes: node.ElemBytes,
		Noise:     stats.NewNoise(seed, sigma),
		OutOfCore: true,
	}
}

func samePoints(t *testing.T, what string, a, b *fpm.PiecewiseLinear) {
	t.Helper()
	pa, pb := a.Points(), b.Points()
	if len(pa) != len(pb) {
		t.Fatalf("%s: %d vs %d points", what, len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("%s: point %d differs: %+v vs %+v", what, i, pa[i], pb[i])
		}
	}
}

func TestBuildModelParallelBitIdentical(t *testing.T) {
	sizes, err := fpm.Grid(8, 2000, 16, "geometric")
	if err != nil {
		t.Fatal(err)
	}
	for _, sigma := range []float64{0, 0.05} {
		seq, seqRep, err := BuildModel(testSocketKernel(7, sigma), sizes, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			par, parRep, err := BuildModel(testSocketKernel(7, sigma), sizes, Options{Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			samePoints(t, "socket model", seq, par)
			if len(seqRep.Points) != len(parRep.Points) {
				t.Fatalf("report points: %d vs %d", len(seqRep.Points), len(parRep.Points))
			}
			for i := range seqRep.Points {
				if seqRep.Points[i] != parRep.Points[i] {
					t.Fatalf("sigma %v: report point %d differs:\nseq %+v\npar %+v",
						sigma, i, seqRep.Points[i], parRep.Points[i])
				}
			}
			if seqRep.TotalRuns != parRep.TotalRuns {
				t.Fatalf("total runs: %d vs %d", seqRep.TotalRuns, parRep.TotalRuns)
			}
		}
	}
}

func TestBuildModelAdaptiveParallelBitIdentical(t *testing.T) {
	opts := func(workers int) AdaptiveOptions {
		return AdaptiveOptions{Options: Options{Parallelism: workers}, MaxPoints: 20}
	}
	seq, seqRep, err := BuildModelAdaptive(testGPUKernel(3, 0.04), 8, 4000, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, parRep, err := BuildModelAdaptive(testGPUKernel(3, 0.04), 8, 4000, opts(workers))
		if err != nil {
			t.Fatal(err)
		}
		samePoints(t, "adaptive model", seq, par)
		if seqRep.TotalRuns != parRep.TotalRuns {
			t.Fatalf("total runs: %d vs %d", seqRep.TotalRuns, parRep.TotalRuns)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	sizes := []float64{10, 20}
	k := &FuncKernel{KernelName: "k", F: func(x float64) (float64, error) { return x, nil }}
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"negative parallelism", Options{Parallelism: -2}, "parallelism"},
		{"negative max reps", Options{MaxReps: -5}, "repetition"},
		{"negative rel err", Options{RelErr: -0.1}, "error target"},
	}
	for _, c := range cases {
		if _, _, err := BuildModel(k, sizes, c.opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
		aopts := AdaptiveOptions{Options: c.opts}
		if _, _, err := BuildModelAdaptive(k, 8, 100, aopts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("adaptive %s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	if _, _, err := BuildModelAdaptive(k, 8, 100, AdaptiveOptions{MaxPoints: -1}); err == nil {
		t.Error("negative MaxPoints accepted")
	}
}

// latencyKernel wraps a kernel and sleeps for a fixed wall-clock duration on
// every run, emulating the hardware-in-the-loop cost of real measurements:
// a real kernel run occupies the device, not the coordinating goroutine, so
// model-building wall time shrinks with the worker-pool width even on a
// single host core. The pool benchmarks use it to show the measurement cost
// the paper identifies as the method's main overhead shrinking with width.
type latencyKernel struct {
	Kernel
	// Latency is the emulated wall-clock duration of one kernel run.
	Latency time.Duration
}

// Run implements Kernel.
func (k *latencyKernel) Run(x float64) (float64, error) {
	time.Sleep(k.Latency)
	return k.Kernel.Run(x)
}

// AtPoint implements PointKernel, delegating to the wrapped kernel.
func (k *latencyKernel) AtPoint(x float64) Kernel {
	if pk, ok := k.Kernel.(PointKernel); ok {
		return &latencyKernel{Kernel: pk.AtPoint(x), Latency: k.Latency}
	}
	return k
}

func TestLatencyKernelDerivesPoints(t *testing.T) {
	base := testSocketKernel(9, 0.03)
	lk := &latencyKernel{Kernel: base, Latency: time.Microsecond}
	derived := lk.AtPoint(64)
	dlk, ok := derived.(*latencyKernel)
	if !ok {
		t.Fatalf("AtPoint returned %T, want *latencyKernel", derived)
	}
	if dlk.Latency != lk.Latency {
		t.Fatalf("latency not preserved: %v", dlk.Latency)
	}
	inner, ok := dlk.Kernel.(*SocketKernel)
	if !ok {
		t.Fatalf("inner kernel is %T", dlk.Kernel)
	}
	if inner == base {
		t.Fatal("AtPoint did not derive a fresh inner kernel")
	}
}

// The headline benchmarks are latency-bound (each kernel run sleeps, standing
// in for a hardware measurement the host must wait on — the dominant cost of
// real model building), so the worker pool shows its benefit even on a
// single-core runner.

const benchPointLatency = 2 * time.Millisecond

func buildLatencyModel(b *testing.B, workers int) {
	sizes, err := fpm.Grid(8, 2000, 16, "geometric")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		k := &latencyKernel{
			Kernel:  testSocketKernel(7, 0.02),
			Latency: benchPointLatency,
		}
		if _, _, err := BuildModel(k, sizes, Options{Parallelism: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildModelSequential(b *testing.B) { buildLatencyModel(b, 1) }
func BenchmarkBuildModelParallel(b *testing.B)   { buildLatencyModel(b, 8) }
