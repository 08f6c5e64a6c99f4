// Package fpmpart is a library for data partitioning on heterogeneous
// multicore and multi-GPU systems using functional performance models
// (FPMs), reproducing Zhong, Rychkov & Lastovetsky, IEEE CLUSTER 2012.
//
// A functional performance model represents a processing element's speed as
// a function of problem size, built empirically by timing a representative
// kernel of the application. Feeding the FPMs of heterogeneous devices to
// the FPM-based data partitioning algorithm yields a workload distribution
// in which every device finishes at the same time — including across the
// memory-hierarchy cliffs (GPU device memory, out-of-core transitions)
// where constant-performance models fail.
//
// The package is a facade over the implementation packages:
//
//   - performance models and their construction (internal/fpm, internal/bench)
//   - the partitioning algorithms (internal/partition)
//   - column-based 2D matrix layouts (internal/layout)
//   - a simulated hybrid CPU/GPU node standing in for the paper's testbed
//     (internal/hw, internal/gpukernel, internal/sim)
//   - the heterogeneous parallel matrix multiplication application in both
//     simulated and real (pure-Go GEMM) modes (internal/app, internal/blas)
//   - the paper's evaluation, regenerable table by table
//     (internal/experiments)
//
// # Quick start
//
// Describe each device by a speed function and ask for a balanced
// distribution:
//
//	gpu := fpmpart.MustModel([]fpmpart.ModelPoint{
//		{Size: 100, Speed: 900}, {Size: 1300, Speed: 950}, {Size: 1400, Speed: 450},
//	})
//	cpu := fpmpart.MustModel([]fpmpart.ModelPoint{
//		{Size: 100, Speed: 80}, {Size: 1400, Speed: 105},
//	})
//	res, err := fpmpart.PartitionFPM([]fpmpart.Device{
//		{Name: "gpu", Model: gpu},
//		{Name: "cpu", Model: cpu},
//	}, 2000)
//
// See examples/ for complete programs and cmd/experiments for the paper's
// evaluation.
package fpmpart

import (
	"io"

	"fpmpart/internal/app"
	"fpmpart/internal/bench"
	"fpmpart/internal/cluster"
	"fpmpart/internal/comm"
	"fpmpart/internal/dynamic"
	"fpmpart/internal/experiments"
	"fpmpart/internal/fpm"
	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/layout"
	"fpmpart/internal/partition"
	"fpmpart/internal/stencil"
	"fpmpart/internal/telemetry"
	"fpmpart/internal/trace"
)

// Core model types.
type (
	// SpeedFunction is a functional performance model: device speed (in
	// application computation units per second) as a function of problem
	// size.
	SpeedFunction = fpm.SpeedFunction
	// Model is the empirical piecewise-linear FPM.
	Model = fpm.PiecewiseLinear
	// ModelPoint is one (size, speed) observation of a Model.
	ModelPoint = fpm.Point
	// TimeSample is one (size, seconds) kernel timing.
	TimeSample = fpm.TimeSample
	// ConstantModel is the constant-performance baseline (CPM).
	ConstantModel = fpm.Constant
)

// Partitioning types.
type (
	// Device is one processing element offered to the partitioners.
	Device = partition.Device
	// PartitionResult is a complete distribution with predicted times.
	PartitionResult = partition.Result
	// Assignment is one device's share of a PartitionResult.
	Assignment = partition.Assignment
)

// Layout types.
type (
	// Layout is a continuous column-based 2D partition of the unit square.
	Layout = layout.Layout
	// BlockLayout is an integer column-based partition of an n×n block
	// matrix.
	BlockLayout = layout.BlockLayout
	// Rect is one processor's rectangle.
	Rect = layout.Rect
)

// Platform and benchmarking types.
type (
	// Node is a hybrid platform description (sockets + GPUs).
	Node = hw.Node
	// Socket is a multicore CPU socket model.
	Socket = hw.Socket
	// GPU is an accelerator model.
	GPU = hw.GPU
	// Kernel is a timeable computational kernel for model building.
	Kernel = bench.Kernel
	// PointKernel is a Kernel that can derive an independent instance for a
	// single problem size; model builders measure PointKernels concurrently
	// with bit-identical results at any worker count.
	PointKernel = bench.PointKernel
	// BenchOptions configures the repeat-until-reliable measurement loop and
	// its worker pool (Parallelism: 0 = GOMAXPROCS, 1 = sequential).
	BenchOptions = bench.Options
	// BenchReport summarises a model-building session.
	BenchReport = bench.Report
	// GPUKernelVersion selects one of the paper's three GPU kernels.
	GPUKernelVersion = gpukernel.Version
)

// Experiment types.
type (
	// ExperimentTable is the printable result of one experiment.
	ExperimentTable = experiments.Table
	// ModelOptions configures FPM construction for the experiments.
	ModelOptions = experiments.ModelOptions
	// NodeModels bundles the FPMs of a node's processing elements.
	NodeModels = experiments.Models
)

// GPU kernel versions (Section V of the paper).
const (
	// KernelV1 transfers A, B and C on every invocation.
	KernelV1 = gpukernel.V1
	// KernelV2 keeps C resident on the device, tiling out-of-core.
	KernelV2 = gpukernel.V2
	// KernelV3 overlaps transfers with computation (double buffering).
	KernelV3 = gpukernel.V3
)

// NewModel builds a piecewise-linear FPM from (size, speed) points.
func NewModel(points []ModelPoint) (*Model, error) { return fpm.NewPiecewiseLinear(points) }

// MustModel is NewModel that panics on invalid input; for static tables.
func MustModel(points []ModelPoint) *Model { return fpm.MustPiecewiseLinear(points) }

// ModelFromTimings converts reliable kernel timings into an FPM.
func ModelFromTimings(samples []TimeSample) (*Model, error) { return fpm.FromTimings(samples) }

// ReadModel parses the two-column "size speed" text format.
func ReadModel(r io.Reader) (*Model, error) { return fpm.ReadText(r) }

// NewConstantModel returns a CPM with the given speed.
func NewConstantModel(speed float64) (ConstantModel, error) { return fpm.NewConstant(speed) }

// PartitionFPM distributes n computation units over the devices so that all
// finish simultaneously according to their functional performance models —
// the paper's core algorithm.
func PartitionFPM(devices []Device, n int) (PartitionResult, error) {
	return partition.FPM(devices, n, partition.FPMOptions{})
}

// PartitionCPM distributes n units proportionally to constant speeds probed
// from each device's model at refSize — the baseline the paper shows
// failing once problem sizes cross memory-hierarchy boundaries.
func PartitionCPM(devices []Device, n int, refSize float64) (PartitionResult, error) {
	cdevs := make([]Device, len(devices))
	for i, d := range devices {
		c, err := fpm.ConstantFrom(d.Model, refSize)
		if err != nil {
			return PartitionResult{}, err
		}
		cdevs[i] = Device{Name: d.Name, Model: c, MaxUnits: d.MaxUnits}
	}
	return partition.CPM(cdevs, n, refSize)
}

// PartitionHomogeneous distributes n units evenly.
func PartitionHomogeneous(devices []Device, n int) (PartitionResult, error) {
	return partition.Homogeneous(devices, n)
}

// NewLayout arranges relative areas into the communication-minimising
// column-based 2D partition of the unit square.
func NewLayout(areas []float64) (*Layout, error) { return layout.Continuous(areas) }

// BuildModel benchmarks a kernel over the given problem sizes, repeating
// each measurement until statistically reliable, and returns the FPM. Grid
// points are measured concurrently on opts.Parallelism workers; kernels
// implementing PointKernel get a derived instance per point, which makes
// the result independent of the worker count.
func BuildModel(k Kernel, sizes []float64, opts BenchOptions) (*Model, BenchReport, error) {
	return bench.BuildModel(k, sizes, opts)
}

// Sizes returns n problem sizes spanning [lo, hi] with "linear" or
// "geometric" spacing, for use with BuildModel.
func Sizes(lo, hi float64, n int, spacing string) ([]float64, error) {
	return fpm.Grid(lo, hi, n, spacing)
}

// NewIGNode returns the model of the paper's experimental platform
// (Table I): four six-core Opteron sockets, a GeForce GTX680 and a Tesla
// C870, blocking factor 640, single precision.
func NewIGNode() *Node { return hw.NewIGNode() }

// BuildNodeModels benchmarks every processing element of a node and returns
// its functional performance models, ready for partitioning via
// NodeModels.Devices.
func BuildNodeModels(node *Node, opts ModelOptions) (*NodeModels, error) {
	return experiments.BuildModels(node, opts)
}

// Experiments lists the regenerable tables and figures of the paper.
func Experiments() []string { return experiments.Names() }

// RunExperiment regenerates one of the paper's tables or figures (or an
// ablation) on the given node; see Experiments for the available names.
func RunExperiment(name string, node *Node, opts ModelOptions) (*ExperimentTable, error) {
	return experiments.Run(name, node, opts)
}

// HybridProcesses enumerates the application processes of a hybrid run
// (one dedicated core per GPU, CPU kernels on the remaining cores).
func HybridProcesses(node *Node) ([]app.Process, error) {
	return app.Processes(node, app.Hybrid)
}

// SimResult is the outcome of a simulated application run.
type SimResult = app.SimResult

// SimulateHybrid runs the heterogeneous matrix multiplication on the
// modelled node with the given per-device unit distribution (in
// NodeModels.Devices order) on an n×n-block problem, with contention and
// broadcast communication accounted for.
func SimulateHybrid(models *NodeModels, units []int, n int) (SimResult, error) {
	return models.RunHybrid(units, n)
}

// FuncKernel adapts an arbitrary timing function to the Kernel interface,
// for building FPMs of custom applications (see examples/jacobi).
type FuncKernel = bench.FuncKernel

// GPUKernelSpeed returns the modelled speed (flops/second) of one GPU
// kernel invocation on a rows×cols-block rectangle — one point of the
// curves in the paper's Figure 3.
func GPUKernelSpeed(g *GPU, v GPUKernelVersion, blockSize, elemBytes, rows, cols int) (float64, error) {
	return gpukernel.Speed(v, gpukernel.Invocation{
		GPU: g, BlockSize: blockSize, ElemBytes: elemBytes, Rows: rows, Cols: cols,
	})
}

// MonotoneCubicModel is the smooth (PCHIP) alternative to the
// piecewise-linear Model: C¹, passes through every observation, and never
// overshoots the measured speed range.
type MonotoneCubicModel = fpm.MonotoneCubic

// NewMonotoneCubicModel builds a monotone cubic FPM from (size, speed)
// points.
func NewMonotoneCubicModel(points []ModelPoint) (*MonotoneCubicModel, error) {
	return fpm.NewMonotoneCubic(points)
}

// HierarchicalResult is a two-level partition (across groups, then within).
type HierarchicalResult = partition.HierarchicalResult

// PartitionHierarchical partitions n units over groups of devices in two
// levels: each group is summarised by an aggregate FPM, n is split across
// groups, and each group's share is partitioned internally — how FPM
// partitioning composes across cluster levels.
func PartitionHierarchical(groups [][]Device, n int) (HierarchicalResult, error) {
	return partition.Hierarchical(groups, n, nil)
}

// AdaptiveOptions configures BuildModelAdaptive.
type AdaptiveOptions = bench.AdaptiveOptions

// BuildModelAdaptive benchmarks the kernel over [lo, hi], placing
// measurement points where linear interpolation mispredicts — resolving
// ramps and memory cliffs with a fraction of a uniform grid's measurements.
func BuildModelAdaptive(k Kernel, lo, hi float64, opts AdaptiveOptions) (*Model, BenchReport, error) {
	return bench.BuildModelAdaptive(k, lo, hi, opts)
}

// DynamicOracle reports the true per-iteration time of a device holding
// the given units — the platform abstraction of the dynamic balancer.
type DynamicOracle = dynamic.Oracle

// DynamicTrace is the record of a dynamic load-balancing run.
type DynamicTrace = dynamic.Trace

// DynamicOptions tunes the dynamic balancer.
type DynamicOptions = dynamic.Options

// RunDynamic executes the dynamic load-balancing baseline (related work of
// the paper): nIters application iterations from an initial distribution,
// redistributing by observed speed whenever the imbalance exceeds the
// threshold.
func RunDynamic(oracle DynamicOracle, initial []int, nIters int, opts DynamicOptions) (DynamicTrace, error) {
	return dynamic.Run(oracle, initial, nIters, opts)
}

// ScheduleTimeline records engine/task spans of a simulated schedule and
// renders text Gantt charts.
type ScheduleTimeline = trace.Timeline

// GPUKernelSchedule computes the overlapped (version 3) kernel's time while
// recording its engine schedule — the timeline of the paper's Figure 4(b).
func GPUKernelSchedule(g *GPU, blockSize, elemBytes, rows, cols int, tl *ScheduleTimeline) (makespan float64, err error) {
	bd, err := gpukernel.ScheduleV3(gpukernel.Invocation{
		GPU: g, BlockSize: blockSize, ElemBytes: elemBytes, Rows: rows, Cols: cols,
	}, tl)
	if err != nil {
		return 0, err
	}
	return bd.Makespan, nil
}

// Second application: the iterative 2D stencil (internal/stencil), showing
// the methodology is not specific to matrix multiplication.

// StencilGrid is a dense 2D field for the stencil application.
type StencilGrid = stencil.Grid

// StencilResult reports a partitioned stencil run.
type StencilResult = stencil.RealResult

// NewStencilGrid allocates a zeroed rows×cols field.
func NewStencilGrid(rows, cols int) (*StencilGrid, error) { return stencil.NewGrid(rows, cols) }

// RunStencil performs iters Jacobi relaxation sweeps with the grid's rows
// split into bands (one goroutine per band, barrier per iteration).
// Optional per-band slowdowns emulate heterogeneous devices.
func RunStencil(g *StencilGrid, bands []int, iters int, slowdowns []float64) (*StencilGrid, StencilResult, error) {
	return stencil.RunReal(g, bands, iters, slowdowns)
}

// RunStencilSequential is the single-threaded reference implementation.
func RunStencilSequential(g *StencilGrid, iters int) (*StencilGrid, error) {
	return stencil.RunSequential(g, iters)
}

// SmoothModel returns a moving-average-smoothed copy of a piecewise-linear
// model (window points each side) — light de-noising for empirical FPMs.
func SmoothModel(m *Model, window int) (*Model, error) { return fpm.Smooth(m, window) }

// HybridCluster is a set of hybrid nodes joined by an interconnect, for
// cluster-wide simulated runs.
type HybridCluster = cluster.Cluster

// Network is a communication performance model (latency + bandwidths) used
// to price transfers; obtain measured ones from a workerd fleet calibration.
type Network = comm.Network

// NewCluster assembles a cluster of hybrid nodes with default intra-node
// and inter-node networks.
func NewCluster(nodes ...*Node) (*HybridCluster, error) { return cluster.New(nodes...) }

// NewClusterWithInterconnect assembles a cluster whose inter-node transfers
// are priced on a measured network (e.g. a workerd fleet calibration)
// instead of the built-in presets.
func NewClusterWithInterconnect(interconnect Network, nodes ...*Node) (*HybridCluster, error) {
	return cluster.NewWithInterconnect(interconnect, nodes...)
}

// ModelTimeInversion describes a region where a model's execution time
// decreases with problem size (a memory-hierarchy transition or a
// measurement artefact); the partitioners handle these via the monotone
// envelope, but users should know they exist.
type ModelTimeInversion = fpm.TimeInversion

// DiagnoseModel reports every knot-to-knot time inversion of a model.
func DiagnoseModel(m *Model) []ModelTimeInversion { return fpm.Diagnose(m) }

// DescribeModel renders a one-line summary of a model: domain, speed range
// and any time inversions.
func DescribeModel(m *Model) string { return fpm.DescribeModel(m) }

// Telemetry: the library instruments its partitioners, model builders and
// simulations against a process-wide registry (internal/telemetry). Recording
// is off by default and effectively free while disabled; enable it and attach
// sinks to observe a run.

// TelemetryRegistry holds counters, gauges and histograms, and exports them
// as Prometheus text and JSON snapshots.
type TelemetryRegistry = telemetry.Registry

// Telemetry returns the default registry every fpmpart package records into.
func Telemetry() *TelemetryRegistry { return telemetry.Default() }

// EnableTelemetry switches recording on the default registry.
func EnableTelemetry(on bool) { telemetry.Default().SetEnabled(on) }

// TelemetryEventLog is a structured JSONL event sink for a registry.
type TelemetryEventLog = telemetry.EventLog

// NewTelemetryEventLog returns an event log writing one JSON object per
// line to w; install it with Telemetry().SetEventLog.
func NewTelemetryEventLog(w io.Writer) *TelemetryEventLog { return telemetry.NewEventLog(w) }

// ChromeTrace accumulates spans and writes Chrome trace_event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
type ChromeTrace = telemetry.ChromeTrace

// NewChromeTrace returns an empty Chrome trace.
func NewChromeTrace() *ChromeTrace { return telemetry.NewChromeTrace() }

// SimulateHybridTraced is SimulateHybrid additionally reconstructing the run
// as a per-process timeline: feed it to ChromeTrace.AddTimelineByLane to get
// one lane per CPU core and per GPU engine (the paper's Figure 4(b), node
// wide). maxIters bounds the traced iterations (0 = all n).
func SimulateHybridTraced(models *NodeModels, units []int, n, maxIters int) (SimResult, *ScheduleTimeline, error) {
	return models.RunHybridTraced(units, n, maxIters)
}
