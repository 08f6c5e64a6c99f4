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
// The package is the library entry point: building models by timing a
// kernel (internal/bench, internal/fpm), the partitioning algorithms
// (internal/partition), column-based 2D layouts (internal/layout) and the
// dynamic load-balancing baseline (internal/dynamic). The paper's
// evaluation is cmd/experiments, the partitioning service is cmd/fpmd with
// cmd/fpmworker, and model building on the simulated platform is
// cmd/fpmbench.
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
// examples/quickstart is this as a program; examples/realfpm builds the
// models with the wall clock instead.
package fpmpart

import (
	"fpmpart/internal/bench"
	"fpmpart/internal/dynamic"
	"fpmpart/internal/fpm"
	"fpmpart/internal/layout"
	"fpmpart/internal/partition"
)

// Core model types.
type (
	// Model is the empirical piecewise-linear FPM.
	Model = fpm.PiecewiseLinear
	// ModelPoint is one (size, speed) observation of a Model.
	ModelPoint = fpm.Point
)

// Partitioning types.
type (
	// Device is one processing element offered to the partitioners.
	Device = partition.Device
	// PartitionResult is a complete distribution with predicted times.
	PartitionResult = partition.Result
	// HierarchicalResult is a two-level partition (across groups, then
	// within).
	HierarchicalResult = partition.HierarchicalResult
)

// Layout is a continuous column-based 2D partition of the unit square.
type Layout = layout.Layout

// Model-building types.
type (
	// Kernel is a timeable computational kernel for model building.
	Kernel = bench.Kernel
	// FuncKernel adapts an arbitrary timing function to the Kernel
	// interface, for building FPMs of custom applications.
	FuncKernel = bench.FuncKernel
	// BenchOptions configures the repeat-until-reliable measurement loop and
	// its worker pool (Parallelism: 0 = GOMAXPROCS, 1 = sequential).
	BenchOptions = bench.Options
	// BenchReport summarises a model-building session.
	BenchReport = bench.Report
)

// Dynamic load-balancing types.
type (
	// DynamicOracle reports the true per-iteration time of a device holding
	// the given units — the platform abstraction of the dynamic balancer.
	DynamicOracle = dynamic.Oracle
	// DynamicTrace is the record of a dynamic load-balancing run.
	DynamicTrace = dynamic.Trace
	// DynamicOptions tunes the dynamic balancer.
	DynamicOptions = dynamic.Options
)

// MustModel builds a piecewise-linear FPM from (size, speed) points and
// panics on invalid input; for static tables.
func MustModel(points []ModelPoint) *Model { return fpm.MustPiecewiseLinear(points) }

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

// PartitionHierarchical partitions n units over groups of devices in two
// levels: each group is summarised by an aggregate FPM, n is split across
// groups, and each group's share is partitioned internally — how FPM
// partitioning composes across cluster levels.
func PartitionHierarchical(groups [][]Device, n int) (HierarchicalResult, error) {
	return partition.Hierarchical(groups, n, nil)
}

// NewLayout arranges relative areas into the communication-minimising
// column-based 2D partition of the unit square.
func NewLayout(areas []float64) (*Layout, error) { return layout.Continuous(areas) }

// BuildModel benchmarks a kernel over the given problem sizes, repeating
// each measurement until statistically reliable, and returns the FPM. Grid
// points are measured concurrently on opts.Parallelism workers; kernels
// implementing bench.PointKernel get a derived instance per point, which
// makes the result independent of the worker count.
func BuildModel(k Kernel, sizes []float64, opts BenchOptions) (*Model, BenchReport, error) {
	return bench.BuildModel(k, sizes, opts)
}

// Sizes returns n problem sizes spanning [lo, hi] with "linear" or
// "geometric" spacing, for use with BuildModel.
func Sizes(lo, hi float64, n int, spacing string) ([]float64, error) {
	return fpm.Grid(lo, hi, n, spacing)
}

// RunDynamic executes the dynamic load-balancing baseline (related work of
// the paper): nIters application iterations from an initial distribution,
// redistributing by observed speed whenever the imbalance exceeds the
// threshold.
func RunDynamic(oracle DynamicOracle, initial []int, nIters int, opts DynamicOptions) (DynamicTrace, error) {
	return dynamic.Run(oracle, initial, nIters, opts)
}
