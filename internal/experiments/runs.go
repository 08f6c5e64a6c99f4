package experiments

import (
	"fmt"

	"fpmpart/internal/app"
	"fpmpart/internal/layout"
	"fpmpart/internal/partition"
	"fpmpart/internal/trace"
)

// CPMRefBlocks is the problem size at which the CPM baseline's constants
// are probed: the per-device share of an evenly distributed 40×40-block
// problem — a size that fits every GPU's memory, which is exactly why the
// CPM misjudges the GPUs at larger sizes (paper, Section VI).
const CPMRefBlocks = 266

// simOptions returns the standard simulation options for hybrid runs:
// contention on, default communication model, the models' kernel version.
func (m *Models) simOptions() app.SimOptions {
	return app.SimOptions{Version: m.Version, Contention: true, Comm: app.DefaultComm()}
}

// runWithUnits lays out per-device units over the node's processes and
// simulates the run.
func runWithUnits(m *Models, procs []app.Process, units []int, n int) (app.SimResult, error) {
	bl, err := m.HybridLayout(procs, units, n)
	if err != nil {
		return app.SimResult{}, err
	}
	return app.Simulate(m.Node, procs, bl, m.simOptions())
}

// RunHybridTraced simulates the hybrid application with the given
// per-device unit distribution (in Devices() order) on an n×n-block
// problem, reconstructing the run as a per-process timeline for
// Chrome-trace export (see app.SimulateTraced); maxIters bounds the traced
// iterations (0 = all n).
func (m *Models) RunHybridTraced(units []int, n, maxIters int) (app.SimResult, *trace.Timeline, error) {
	procs, err := app.Processes(m.Node, app.Hybrid)
	if err != nil {
		return app.SimResult{}, nil, err
	}
	bl, err := m.HybridLayout(procs, units, n)
	if err != nil {
		return app.SimResult{}, nil, err
	}
	return app.SimulateTraced(m.Node, procs, bl, m.simOptions(), maxIters)
}

// PartitionFPM partitions an n×n-block problem (n² units) over the node's
// hybrid devices with the FPM algorithm.
func (m *Models) PartitionFPM(n int) (partition.Result, error) {
	return partition.FPM(m.Devices(), n*n, partition.FPMOptions{})
}

// PartitionCPM partitions with the constant-performance baseline.
func (m *Models) PartitionCPM(n int) (partition.Result, error) {
	devs, err := m.CPMDevices(CPMRefBlocks)
	if err != nil {
		return partition.Result{}, err
	}
	return partition.CPM(devs, n*n, CPMRefBlocks)
}

// runCPMandFPM executes the hybrid application under both partitionings.
func runCPMandFPM(m *Models, procs []app.Process, n int) (cpmRes, fpmRes app.SimResult, err error) {
	cpm, err := m.PartitionCPM(n)
	if err != nil {
		return cpmRes, fpmRes, fmt.Errorf("experiments: CPM partition n=%d: %w", n, err)
	}
	fpmPart, err := m.PartitionFPM(n)
	if err != nil {
		return cpmRes, fpmRes, fmt.Errorf("experiments: FPM partition n=%d: %w", n, err)
	}
	cpmRes, err = runWithUnits(m, procs, cpm.Units(), n)
	if err != nil {
		return cpmRes, fpmRes, err
	}
	fpmRes, err = runWithUnits(m, procs, fpmPart.Units(), n)
	return cpmRes, fpmRes, err
}

// runHomogeneous executes the hybrid application with the workload spread
// evenly over all processes.
func runHomogeneous(m *Models, procs []app.Process, n int) (app.SimResult, error) {
	shares := make([]float64, len(procs))
	for i := range shares {
		shares[i] = 1
	}
	l, err := layout.Continuous(shares)
	if err != nil {
		return app.SimResult{}, err
	}
	bl, err := l.Discretize(n)
	if err != nil {
		return app.SimResult{}, err
	}
	return app.Simulate(m.Node, procs, bl, m.simOptions())
}

// runCPUOnly executes the application on every CPU core, evenly.
func runCPUOnly(m *Models, n int) (app.SimResult, error) {
	procs, err := app.Processes(m.Node, app.CPUOnly)
	if err != nil {
		return app.SimResult{}, err
	}
	shares := make([]float64, len(procs))
	for i := range shares {
		shares[i] = 1
	}
	l, err := layout.Continuous(shares)
	if err != nil {
		return app.SimResult{}, err
	}
	bl, err := l.Discretize(n)
	if err != nil {
		return app.SimResult{}, err
	}
	return app.Simulate(m.Node, procs, bl, app.SimOptions{Version: m.Version, Comm: app.DefaultComm()})
}

// runSingleGPU executes the application on one GPU plus its dedicated core.
func runSingleGPU(m *Models, g, n int) (app.SimResult, error) {
	p, err := app.GPUProcess(m.Node, g)
	if err != nil {
		return app.SimResult{}, err
	}
	l, err := layout.Continuous([]float64{1})
	if err != nil {
		return app.SimResult{}, err
	}
	bl, err := l.Discretize(n)
	if err != nil {
		return app.SimResult{}, err
	}
	return app.Simulate(m.Node, []app.Process{p}, bl, app.SimOptions{Version: m.Version})
}
