package fpmpart

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, plus benchmarks of the core algorithms and of the
// real pure-Go GEMM. Run with:
//
//	go test -bench=. -benchmem
//
// The Figure/Table benchmarks time the full regeneration pipeline (model
// building by simulated measurement + partitioning + simulated execution);
// their *output* is checked by the test suite, their *cost* is what the
// benchmarks report. Each benchmark prints its headline reproduction
// numbers once so `go test -bench` output documents the result shapes.

import (
	"fmt"
	"sync"
	"testing"

	"fpmpart/internal/bench"
	"fpmpart/internal/blas"
	"fpmpart/internal/experiments"
	"fpmpart/internal/hw"
	"fpmpart/internal/layout"
	"fpmpart/internal/matrix"
	"fpmpart/internal/partition"
	"fpmpart/internal/telemetry"
)

var benchOpts = experiments.ModelOptions{Seed: 1, NoiseSigma: 0.01, Points: 14}

// reportOnce prints a table's headline rows a single time per benchmark.
var reportOnce sync.Map

func runExperimentBench(b *testing.B, name string) {
	b.Helper()
	node := hw.NewIGNode()
	var tab *experiments.Table
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Run(name, node, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, done := reportOnce.LoadOrStore(name, true); !done && tab != nil {
		b.Logf("%s: %s (%d rows)", tab.ID, tab.Title, len(tab.Rows))
		for _, n := range tab.Notes {
			b.Logf("  %s", n)
		}
	}
}

// BenchmarkFigure2SocketFPM regenerates Figure 2 (socket speed functions
// s5/s6).
func BenchmarkFigure2SocketFPM(b *testing.B) { runExperimentBench(b, "figure2") }

// BenchmarkFigure3GPUKernels regenerates Figure 3 (GTX680 kernel versions
// 1-3 across the memory limit).
func BenchmarkFigure3GPUKernels(b *testing.B) { runExperimentBench(b, "figure3") }

// BenchmarkFigure5Contention regenerates Figure 5 (CPU/GPU same-socket
// contention).
func BenchmarkFigure5Contention(b *testing.B) { runExperimentBench(b, "figure5") }

// BenchmarkFigure6PerProcess regenerates Figure 6 (per-process computation
// times, CPM vs FPM, n=60).
func BenchmarkFigure6PerProcess(b *testing.B) { runExperimentBench(b, "figure6") }

// BenchmarkFigure7Sweep regenerates Figure 7 (execution time vs n for
// homogeneous/CPM/FPM partitioning).
func BenchmarkFigure7Sweep(b *testing.B) { runExperimentBench(b, "figure7") }

// BenchmarkTable2Hybrid regenerates Table II (CPU-only / GPU-only /
// hybrid-FPM execution times).
func BenchmarkTable2Hybrid(b *testing.B) { runExperimentBench(b, "table2") }

// BenchmarkTable3Partitioning regenerates Table III (CPM vs FPM block
// distributions).
func BenchmarkTable3Partitioning(b *testing.B) { runExperimentBench(b, "table3") }

// Ablation benchmarks (design choices called out in DESIGN.md).

// BenchmarkAblationPartitioners compares partitioner variants.
func BenchmarkAblationPartitioners(b *testing.B) { runExperimentBench(b, "ablation-partitioners") }

// BenchmarkAblationDMA isolates 1 vs 2 DMA engines under overlap.
func BenchmarkAblationDMA(b *testing.B) { runExperimentBench(b, "ablation-dma") }

// BenchmarkAblationSocketFPM contrasts group vs naive socket measurement.
func BenchmarkAblationSocketFPM(b *testing.B) { runExperimentBench(b, "ablation-socket-fpm") }

// Core-algorithm microbenchmarks.

func benchDevices(n int) []partition.Device {
	devs := make([]partition.Device, n)
	for i := range devs {
		pts := []ModelPoint{
			{Size: 10, Speed: float64(50 + 13*i)},
			{Size: 1000, Speed: float64(120 + 17*i)},
			{Size: 5000, Speed: float64(100 + 11*i)},
		}
		devs[i] = partition.Device{Name: fmt.Sprintf("d%d", i), Model: MustModel(pts)}
	}
	return devs
}

// BenchmarkPartitionFPM measures the FPM bisection partitioner itself.
func BenchmarkPartitionFPM(b *testing.B) {
	for _, p := range []int{6, 24, 96} {
		devs := benchDevices(p)
		b.Run(fmt.Sprintf("devices=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := partition.FPM(devs, 100000, partition.FPMOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColumnLayout measures the column-based 2D partitioning DP.
func BenchmarkColumnLayout(b *testing.B) {
	for _, p := range []int{6, 24, 96} {
		areas := make([]float64, p)
		for i := range areas {
			areas[i] = float64(1 + i%7)
		}
		b.Run(fmt.Sprintf("procs=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l, err := layout.Continuous(areas)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := l.Discretize(64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGemm measures the GEMM kernels used by the real execution mode:
// the seed single-level blocked loop (the baseline the packed kernel's
// speedup target is defined against), the packed register-blocked kernel
// single-threaded, and the packed kernel with all cores. The bytes/s
// column reads as flops/s.
func BenchmarkGemm(b *testing.B) {
	for _, n := range []int{256, 1024} {
		a := matrix.MustNew(n, n)
		bm := matrix.MustNew(n, n)
		a.FillRandom(1)
		bm.FillRandom(2)
		c := matrix.MustNew(n, n)
		flops := 2 * float64(n) * float64(n) * float64(n)
		b.Run(fmt.Sprintf("blocked/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := blas.GemmBlocked(1, a, bm, 0, c, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(flops)) // bytes/s column reads as flops/s
		})
		b.Run(fmt.Sprintf("packed/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := blas.GemmPacked(1, a, bm, 0, c, blas.DefaultConfig, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(flops))
		})
		b.Run(fmt.Sprintf("parallel/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := blas.GemmParallel(1, a, bm, 0, c, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(flops))
		})
	}
}

// BenchmarkAblationDynamic compares static FPM vs dynamic balancing.
func BenchmarkAblationDynamic(b *testing.B) { runExperimentBench(b, "ablation-dynamic") }

// BenchmarkAblationLayout compares column-based vs 1D layouts.
func BenchmarkAblationLayout(b *testing.B) { runExperimentBench(b, "ablation-layout") }

// BenchmarkAblationModelAccuracy compares FPM/cubic/CPM prediction error.
func BenchmarkAblationModelAccuracy(b *testing.B) { runExperimentBench(b, "ablation-model-accuracy") }

// BenchmarkAdaptiveModelBuild measures error-driven model construction on
// the GTX680 kernel (cliff included).
func BenchmarkAdaptiveModelBuild(b *testing.B) {
	g := hw.NewGTX680()
	k := &bench.GPUKernel{GPU: g, Version: 2, BlockSize: 640, ElemBytes: 4, OutOfCore: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.BuildModelAdaptive(k, 16, 4000, bench.AdaptiveOptions{MaxPoints: 22}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierarchicalPartition measures two-level partitioning over four
// groups of six devices.
func BenchmarkHierarchicalPartition(b *testing.B) {
	groups := make([][]partition.Device, 4)
	for g := range groups {
		groups[g] = benchDevices(6)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Hierarchical(groups, 100000, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationComm compares scalar vs message-scheduled communication.
func BenchmarkAblationComm(b *testing.B) { runExperimentBench(b, "ablation-comm") }

// BenchmarkAblationNoise measures partition stability across noise levels.
func BenchmarkAblationNoise(b *testing.B) { runExperimentBench(b, "ablation-noise") }

// BenchmarkFigure4Schedule regenerates the engine schedule of Figure 4(b).
func BenchmarkFigure4Schedule(b *testing.B) { runExperimentBench(b, "figure4") }

// BenchmarkClusterScaling measures the multi-node FPM experiment.
func BenchmarkClusterScaling(b *testing.B) { runExperimentBench(b, "cluster-scaling") }

// BenchmarkTelemetryDisabled verifies that the telemetry instrumentation
// threaded through the partitioner, bench and simulation layers is
// effectively free while recording is off (the default): a disabled counter
// increment must cost a few nanoseconds and zero allocations.
func BenchmarkTelemetryDisabled(b *testing.B) {
	reg := telemetry.Default()
	if reg.Enabled() {
		b.Fatal("telemetry unexpectedly enabled")
	}
	c := reg.Counter("bench_disabled_probe_total")
	h := reg.Histogram("bench_disabled_probe_seconds", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(1e-3)
	}
}
