// Package bench builds functional performance models by benchmarking a
// representative computational kernel over a range of problem sizes, exactly
// as the paper prescribes: the kernel is run repeatedly at each size until
// the measured time is statistically reliable, and the resulting
// size→speed points form the device's piecewise-linear FPM.
//
// Kernels can be backed by the simulated hardware models (internal/hw,
// internal/gpukernel) with reproducible measurement noise, or by real code
// timed with the wall clock (see FuncKernel and internal/blas).
package bench

import (
	"errors"
	"fmt"
	"math"
	"time"

	"fpmpart/internal/fpm"
	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/par"
	"fpmpart/internal/stats"
)

// Kernel is a timed computational kernel: one run at problem size x (in
// application units) returns the observed execution time.
type Kernel interface {
	// Name identifies the kernel (used in reports and model files).
	Name() string
	// Run executes the kernel once for problem size x and returns the
	// elapsed time in seconds.
	Run(x float64) (float64, error)
	// MaxSize is the largest measurable problem size (0 = unbounded). For
	// GPU kernels without out-of-core support this is the device memory
	// limit the paper discusses.
	MaxSize() float64
}

// Options configures the repeat-until-reliable measurement loop.
type Options struct {
	// Confidence is the confidence level for the mean (default 0.95).
	Confidence float64
	// RelErr is the target relative half-width (default 0.025).
	RelErr float64
	// MinReps and MaxReps bound repetitions per point (defaults 3 and 30).
	MinReps, MaxReps int
	// Robust applies 3-MAD outlier filtering to each point's repetitions —
	// recommended when timing with the wall clock (see RealGEMMKernel).
	Robust bool
	// Parallelism is the number of grid points measured concurrently: 0
	// selects GOMAXPROCS, 1 measures sequentially, negative values are
	// rejected. Kernels implementing PointKernel derive a deterministic
	// per-point noise stream, so the built model is bit-identical at any
	// worker count; other kernels must tolerate concurrent Run calls when
	// Parallelism != 1 (wall-clock kernels will additionally contend for
	// the hardware they time).
	Parallelism int
}

func (o Options) withDefaults() (Options, error) {
	if o.Parallelism < 0 {
		return o, fmt.Errorf("bench: negative parallelism %d", o.Parallelism)
	}
	if o.MinReps < 0 || o.MaxReps < 0 {
		return o, fmt.Errorf("bench: negative repetition bound (min %d, max %d)", o.MinReps, o.MaxReps)
	}
	if o.RelErr < 0 {
		return o, fmt.Errorf("bench: negative relative-error target %v", o.RelErr)
	}
	if o.Confidence < 0 {
		return o, fmt.Errorf("bench: negative confidence level %v", o.Confidence)
	}
	if o.Confidence == 0 || o.Confidence >= 1 {
		o.Confidence = 0.95
	}
	if o.RelErr == 0 {
		o.RelErr = 0.025
	}
	if o.MinReps < 2 {
		o.MinReps = 3
	}
	if o.MaxReps == 0 {
		o.MaxReps = 30
	}
	return o, nil
}

// PointReport describes the measurement of one model point.
type PointReport struct {
	Size      float64
	MeanTime  float64
	Reps      int
	Converged bool
}

// Report summarises a model-building session.
type Report struct {
	Kernel string
	Points []PointReport
	// TotalRuns is the number of kernel executions performed.
	TotalRuns int
	// TotalTime is the accumulated virtual (or real) kernel time.
	TotalTime float64
}

// PointKernel is a Kernel that can derive a self-contained instance for one
// measurement point whose noise stream depends only on the base seed and on
// the point's size (see stats.Noise.ForPoint). BuildModel uses it to
// measure grid points concurrently while producing models bit-identical to
// a sequential build.
type PointKernel interface {
	Kernel
	// AtPoint returns the kernel to use for all repetitions at size x.
	AtPoint(x float64) Kernel
}

// kernelAt resolves the kernel instance measuring point x.
func kernelAt(k Kernel, x float64) Kernel {
	if pk, ok := k.(PointKernel); ok {
		return pk.AtPoint(x)
	}
	return k
}

// measurePoint runs the repeat-until-reliable loop for one model point.
func measurePoint(k Kernel, x float64, opts Options) (*stats.Estimator, float64, error) {
	est := stats.NewEstimator(opts.Confidence, opts.RelErr, opts.MinReps, opts.MaxReps)
	est.Robust = opts.Robust
	kp := kernelAt(k, x)
	mean, err := est.Measure(func() (float64, error) { return kp.Run(x) })
	if err != nil {
		return nil, 0, fmt.Errorf("bench: %s at size %v: %w", k.Name(), x, err)
	}
	return est, mean, nil
}

// addPoint folds one measured point into the report; called in grid order so
// reports are identical at any worker count.
func (rep *Report) addPoint(x float64, est *stats.Estimator, mean float64) {
	rep.Points = append(rep.Points, PointReport{
		Size: x, MeanTime: mean, Reps: est.N(), Converged: est.Converged(),
	})
	rep.TotalRuns += est.N()
	for _, v := range est.Sample().Values() {
		rep.TotalTime += v
	}
}

// BuildModel benchmarks the kernel at each of the given sizes and returns
// the piecewise-linear FPM together with a measurement report. Sizes beyond
// the kernel's MaxSize are skipped; it is an error if none remain.
//
// Grid points are measured concurrently on a pool of opts.Parallelism
// workers. For PointKernel kernels the resulting model and report are
// bit-identical to a sequential build.
func BuildModel(k Kernel, sizes []float64, opts Options) (*fpm.PiecewiseLinear, Report, error) {
	if k == nil {
		return nil, Report{}, errors.New("bench: nil kernel")
	}
	if len(sizes) == 0 {
		return nil, Report{}, errors.New("bench: no sizes")
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, Report{}, err
	}
	rep := Report{Kernel: k.Name()}
	maxSize := k.MaxSize()
	kept := make([]float64, 0, len(sizes))
	for _, x := range sizes {
		if x <= 0 {
			return nil, Report{}, fmt.Errorf("bench: invalid size %v", x)
		}
		if maxSize > 0 && x > maxSize {
			continue
		}
		kept = append(kept, x)
	}
	if len(kept) == 0 {
		return nil, rep, fmt.Errorf("bench: all sizes exceed %s's limit %v", k.Name(), maxSize)
	}
	type pointResult struct {
		est  *stats.Estimator
		mean float64
	}
	results := make([]pointResult, len(kept))
	err = par.ForEach(opts.Parallelism, len(kept), func(i int) error {
		est, mean, err := measurePoint(k, kept[i], opts)
		if err != nil {
			return err
		}
		results[i] = pointResult{est: est, mean: mean}
		return nil
	})
	if err != nil {
		return nil, Report{}, err
	}
	samples := make([]fpm.TimeSample, 0, len(kept))
	for i, x := range kept {
		rep.addPoint(x, results[i].est, results[i].mean)
		samples = append(samples, fpm.TimeSample{Size: x, Seconds: results[i].mean})
	}
	model, err := fpm.FromTimings(samples)
	if err != nil {
		return nil, rep, err
	}
	return model, rep, nil
}

// SocketKernel benchmarks the multicore GEMM kernel on a simulated socket:
// `Active` cores execute the kernel simultaneously (the paper's socket-level
// measurement technique, with processes bound and synchronised), so the
// problem size x is the socket's combined workload.
type SocketKernel struct {
	Socket *hw.Socket
	// Active is the number of cores executing the kernel.
	Active int
	// BlockSize is the application blocking factor b.
	BlockSize int
	// Noise perturbs the simulated measurements (nil = deterministic).
	Noise *stats.Noise
	// SpeedFactor scales the socket speed, e.g. the CPU-side contention
	// coefficient when a GPU shares the socket (0 = 1 = none).
	SpeedFactor float64
}

// Name implements Kernel.
func (k *SocketKernel) Name() string {
	return fmt.Sprintf("%s-acml-%dcores", k.Socket.Name, k.Active)
}

// AtPoint implements PointKernel: the returned copy perturbs measurements
// with a noise stream derived from the base seed and x only.
func (k *SocketKernel) AtPoint(x float64) Kernel {
	kp := *k
	kp.Noise = k.Noise.ForPoint(x)
	return &kp
}

// MaxSize implements Kernel: host memory is ample, no limit.
func (k *SocketKernel) MaxSize() float64 { return 0 }

// Run implements Kernel.
func (k *SocketKernel) Run(x float64) (float64, error) {
	if x <= 0 {
		return 0, fmt.Errorf("bench: invalid size %v", x)
	}
	t := k.Socket.KernelTime(x, k.Active, k.BlockSize)
	if f := k.SpeedFactor; f > 0 && f != 1 {
		t /= f
	}
	return k.Noise.Perturb(t), nil
}

// GPUKernel benchmarks one of the GPU kernel versions on a simulated device,
// timed synchronously from the dedicated host core (the paper's synchronous
// measurement approach) and therefore including transfer overheads.
type GPUKernel struct {
	GPU *hw.GPU
	// Version selects the kernel implementation (V1, V2, V3).
	Version gpukernel.Version
	// BlockSize and ElemBytes describe the workload.
	BlockSize, ElemBytes int
	// Noise perturbs the simulated measurements (nil = deterministic).
	Noise *stats.Noise
	// SpeedFactor scales the device speed, e.g. the GPU-side contention
	// coefficient when CPU kernels run on the same socket (0 = 1 = none).
	SpeedFactor float64
	// OutOfCore allows problem sizes beyond device memory (versions 2/3).
	// Version 1 with OutOfCore=false reproduces the paper's remark that the
	// plain CUBLAS model exists only within the memory range.
	OutOfCore bool
}

// Name implements Kernel.
func (k *GPUKernel) Name() string {
	return fmt.Sprintf("%s-cublas-%s", k.GPU.Name, k.Version)
}

// AtPoint implements PointKernel: the returned copy perturbs measurements
// with a noise stream derived from the base seed and x only.
func (k *GPUKernel) AtPoint(x float64) Kernel {
	kp := *k
	kp.Noise = k.Noise.ForPoint(x)
	return &kp
}

// MaxSize implements Kernel.
func (k *GPUKernel) MaxSize() float64 {
	if k.OutOfCore {
		return 0
	}
	// The device must hold C (area x) plus a pivot column and row (≈2√x).
	capacity := math.Floor(k.GPU.MemBytes / hw.BlockBytes(k.BlockSize, k.ElemBytes))
	// Solve x + 2√x = capacity.
	r := math.Sqrt(capacity+1) - 1
	return math.Floor(r * r)
}

// Run implements Kernel.
func (k *GPUKernel) Run(x float64) (float64, error) {
	if x <= 0 {
		return 0, fmt.Errorf("bench: invalid size %v", x)
	}
	// The paper builds GPU models with near-square rectangles: speed for a
	// given area barely depends on shape, so measure the closest integer
	// rectangle and rescale time to the exact requested area.
	rows := int(math.Round(math.Sqrt(x)))
	if rows < 1 {
		rows = 1
	}
	cols := int(math.Round(x / float64(rows)))
	if cols < 1 {
		cols = 1
	}
	inv := gpukernel.Invocation{
		GPU: k.GPU, BlockSize: k.BlockSize, ElemBytes: k.ElemBytes,
		Rows: rows, Cols: cols,
	}
	bd, err := gpukernel.Time(k.Version, inv)
	if err != nil {
		return 0, err
	}
	t := bd.Makespan * x / (float64(rows) * float64(cols))
	if f := k.SpeedFactor; f > 0 && f != 1 {
		t /= f
	}
	return k.Noise.Perturb(t), nil
}

// FuncKernel adapts an arbitrary timing function — e.g. a real wall-clock
// benchmark of a Go GEMM — to the Kernel interface.
type FuncKernel struct {
	KernelName string
	F          func(x float64) (float64, error)
	Max        float64
}

// Name implements Kernel.
func (k *FuncKernel) Name() string { return k.KernelName }

// MaxSize implements Kernel.
func (k *FuncKernel) MaxSize() float64 { return k.Max }

// Run implements Kernel.
func (k *FuncKernel) Run(x float64) (float64, error) { return k.F(x) }

// LatencyKernel wraps a kernel and sleeps for a fixed wall-clock duration on
// every run, emulating the hardware-in-the-loop cost of real measurements:
// a real kernel run occupies the device, not the coordinating goroutine, so
// model-building wall time shrinks with the worker-pool width even on a
// single host core. Used to study (and benchmark) the measurement cost the
// paper identifies as the method's main overhead.
type LatencyKernel struct {
	Kernel
	// Latency is the emulated wall-clock duration of one kernel run.
	Latency time.Duration
}

// Run implements Kernel.
func (k *LatencyKernel) Run(x float64) (float64, error) {
	time.Sleep(k.Latency)
	return k.Kernel.Run(x)
}

// AtPoint implements PointKernel, delegating to the wrapped kernel.
func (k *LatencyKernel) AtPoint(x float64) Kernel {
	if pk, ok := k.Kernel.(PointKernel); ok {
		return &LatencyKernel{Kernel: pk.AtPoint(x), Latency: k.Latency}
	}
	return k
}
