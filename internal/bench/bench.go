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

// Options configures the repeat-until-reliable measurement loop: each point
// is repeated at least three times, and until the 95% confidence interval of
// its mean is within RelErr or MaxReps runs are spent.
type Options struct {
	// RelErr is the target relative half-width (default 0.025).
	RelErr float64
	// MaxReps bounds repetitions per point (default 30).
	MaxReps int
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

const (
	// confidence is the confidence level of each point's mean.
	confidence = 0.95
	// minReps is the fewest repetitions a point's mean rests on.
	minReps = 3
)

func (o Options) withDefaults() (Options, error) {
	if o.Parallelism < 0 {
		return o, fmt.Errorf("bench: negative parallelism %d", o.Parallelism)
	}
	if o.MaxReps < 0 {
		return o, fmt.Errorf("bench: negative repetition bound %d", o.MaxReps)
	}
	if o.RelErr < 0 {
		return o, fmt.Errorf("bench: negative relative-error target %v", o.RelErr)
	}
	if o.RelErr == 0 {
		o.RelErr = 0.025
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

// measure runs the repeat-until-reliable loop at every size on the
// options' worker pool, then folds the points into the report in size order
// — so the report is identical at any worker count — and returns their mean
// times. The report is left untouched on error.
func (rep *Report) measure(k Kernel, xs []float64, opts Options) ([]float64, error) {
	ests := make([]*stats.Estimator, len(xs))
	means := make([]float64, len(xs))
	err := par.ForEach(opts.Parallelism, len(xs), func(i int) error {
		est := stats.NewEstimator(confidence, opts.RelErr, minReps, opts.MaxReps)
		est.Robust = opts.Robust
		kp := kernelAt(k, xs[i])
		mean, err := est.Measure(func() (float64, error) { return kp.Run(xs[i]) })
		if err != nil {
			return fmt.Errorf("bench: %s at size %v: %w", k.Name(), xs[i], err)
		}
		ests[i], means[i] = est, mean
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, x := range xs {
		rep.Points = append(rep.Points, PointReport{
			Size: x, MeanTime: means[i], Reps: ests[i].N(), Converged: ests[i].Converged(),
		})
		rep.TotalRuns += ests[i].N()
		for _, v := range ests[i].Sample().Values() {
			rep.TotalTime += v
		}
	}
	return means, nil
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
	means, err := rep.measure(k, kept, opts)
	if err != nil {
		return nil, Report{}, err
	}
	samples := make([]fpm.TimeSample, len(kept))
	for i, x := range kept {
		samples[i] = fpm.TimeSample{Size: x, Seconds: means[i]}
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
	rows, cols := nearSquare(x)
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

// nearSquare returns the integer rectangle of blocks closest to a square of
// area x. The paper builds GPU models with near-square rectangles — speed
// for a given area barely depends on shape — so kernels time this rectangle
// and rescale the time to the exact requested area.
func nearSquare(x float64) (rows, cols int) {
	rows = max(int(math.Round(math.Sqrt(x))), 1)
	cols = max(int(math.Round(x/float64(rows))), 1)
	return rows, cols
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
