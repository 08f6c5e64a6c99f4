package experiments

import (
	"fmt"

	"fpmpart/internal/app"
	"fpmpart/internal/bench"
	"fpmpart/internal/fpm"
	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/layout"
	"fpmpart/internal/partition"
	"fpmpart/internal/stats"
)

// Models holds the functional performance models of a node's processing
// elements, built by benchmarking the kernels exactly as Section V of the
// paper describes: sockets are measured with all (or all-but-one) cores
// executing the CPU kernel simultaneously, GPUs with the selected kernel
// version driven by a dedicated core.
type Models struct {
	Node *hw.Node
	// Version is the GPU kernel version the models were built for.
	Version gpukernel.Version
	// SocketFull[s] is the socket's FPM with every core active ("s6" on the
	// paper's node); SocketHost[s] with one core dedicated to a GPU ("s5").
	SocketFull, SocketHost []*fpm.PiecewiseLinear
	// GPU[g] is the combined GPU + dedicated-core FPM ("g1", "g2").
	GPU []*fpm.PiecewiseLinear
	// Parallelism is the worker-pool width the experiment drivers use for
	// independent experiment units (per-n runs, per-version curves, ablation
	// arms). It is carried on Models because most drivers receive only a
	// *Models. 0 means GOMAXPROCS, 1 forces sequential execution.
	Parallelism int
}

// ModelOptions configures model construction.
type ModelOptions struct {
	// Version is the GPU kernel version (default V2, the configuration of
	// the paper's Section VI experiments).
	Version gpukernel.Version
	// Seed drives the reproducible measurement noise.
	Seed int64
	// NoiseSigma is the relative measurement noise (default 0.01).
	NoiseSigma float64
	// MaxBlocks is the largest problem size to measure (default 4000, the
	// range of the paper's Figure 3).
	MaxBlocks float64
	// Points is the number of grid points per model (default 18).
	Points int
	// Parallelism bounds the worker pools used for model building and for
	// independent experiment units. 0 selects GOMAXPROCS, 1 runs everything
	// sequentially; results are bit-identical either way because all
	// simulated noise is derived from per-point seeds.
	Parallelism int
	// FaultSpec overrides the fault plan of the recovery experiment
	// (faults.ParseSpec syntax); empty selects the default crash scenario.
	FaultSpec string
	// FaultSeed resolves seed-drawn fault parameters (stall lengths,
	// slowdown factors). Zero behaves like any other seed.
	FaultSeed int64
}

func (o ModelOptions) withDefaults() (ModelOptions, error) {
	if o.Parallelism < 0 {
		return o, fmt.Errorf("experiments: negative parallelism %d", o.Parallelism)
	}
	if o.Points < 0 {
		return o, fmt.Errorf("experiments: negative model grid size %d", o.Points)
	}
	if o.MaxBlocks < 0 {
		return o, fmt.Errorf("experiments: negative model size limit %v", o.MaxBlocks)
	}
	if o.NoiseSigma < 0 {
		return o, fmt.Errorf("experiments: negative noise sigma %v", o.NoiseSigma)
	}
	if o.Version == 0 {
		o.Version = gpukernel.V2
	}
	if o.NoiseSigma == 0 {
		o.NoiseSigma = 0.01
	}
	if o.MaxBlocks == 0 {
		o.MaxBlocks = 4000
	}
	if o.Points == 0 {
		o.Points = 18
	}
	return o, nil
}

// BuildModels benchmarks every processing element of the node and returns
// its functional performance models. The per-device builds are independent
// (each kernel carries its own seeded noise source) and run on a bounded
// worker pool of opts.Parallelism workers; seeds are assigned up front in
// the fixed device order — sockets (full then host configuration) followed
// by GPUs — so the models are identical at any worker count.
func BuildModels(node *hw.Node, opts ModelOptions) (*Models, error) {
	return buildModels(node, opts, 1, 1)
}

// buildModels is BuildModels with the kernels slowed while they are
// measured: each socket's host configuration by hostFactor, each GPU by
// gpuFactor (1 measures the device exclusively, as the paper does).
func buildModels(node *hw.Node, opts ModelOptions, hostFactor, gpuFactor float64) (*Models, error) {
	if err := node.Validate(); err != nil {
		return nil, err
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	sizes, err := fpm.Grid(8, opts.MaxBlocks, opts.Points, "geometric")
	if err != nil {
		return nil, err
	}
	var curves []curve
	seed := opts.Seed
	for _, sock := range node.Sockets {
		for _, host := range []bool{false, true} {
			active, factor := sock.Cores, 1.0
			if host {
				active, factor = sock.Cores-1, hostFactor
			}
			seed++
			curves = append(curves, curve{&bench.SocketKernel{
				Socket: sock, Active: max(active, 1), BlockSize: node.BlockSize,
				Noise: stats.NewNoise(seed, opts.NoiseSigma), SpeedFactor: factor,
			}, sizes})
		}
	}
	for _, gpu := range node.GPUs {
		seed++
		curves = append(curves, curve{&bench.GPUKernel{
			GPU: gpu, Version: opts.Version,
			BlockSize: node.BlockSize, ElemBytes: node.ElemBytes,
			Noise:       stats.NewNoise(seed, opts.NoiseSigma),
			SpeedFactor: gpuFactor,
			OutOfCore:   opts.Version != gpukernel.V1,
		}, sizes})
	}
	built, err := buildCurves(opts, curves...)
	if err != nil {
		return nil, err
	}
	m := &Models{
		Node:        node,
		Version:     opts.Version,
		SocketFull:  make([]*fpm.PiecewiseLinear, len(node.Sockets)),
		SocketHost:  make([]*fpm.PiecewiseLinear, len(node.Sockets)),
		GPU:         built[2*len(node.Sockets):],
		Parallelism: opts.Parallelism,
	}
	for s := range node.Sockets {
		m.SocketFull[s], m.SocketHost[s] = built[2*s], built[2*s+1]
	}
	return m, nil
}

// curve is one speed function to measure: a kernel over a size grid.
type curve struct {
	kernel bench.Kernel
	sizes  []float64
}

// buildCurves measures every curve on a pool of opts.Parallelism workers,
// each measuring its grid points on a pool of the same width. Every kernel
// carries its own seeded noise, so the models are identical at any width.
func buildCurves(opts ModelOptions, curves ...curve) ([]*fpm.PiecewiseLinear, error) {
	models := make([]*fpm.PiecewiseLinear, len(curves))
	bopts := bench.Options{Parallelism: opts.Parallelism}
	err := opts.forEachUnit(len(curves), func(i int) error {
		m, _, err := bench.BuildModel(curves[i].kernel, curves[i].sizes, bopts)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", curves[i].kernel.Name(), err)
		}
		models[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return models, nil
}

// fastGPU returns the index of the node's fast GPU — the paper's GTX680,
// the GPU with two DMA engines (the last one, if several have two) — or the
// last GPU when none has two.
func fastGPU(node *hw.Node) int {
	g := len(node.GPUs) - 1
	for i, gpu := range node.GPUs {
		if gpu.DMAEngines == 2 {
			g = i
		}
	}
	return g
}

// Devices returns the partitioning devices of a hybrid run, in the fixed
// order GPUs (node order) then sockets (node order). Socket devices use the
// host model on sockets that drive a GPU. GPU devices carry a memory cap
// only when the models were built for the in-core kernel (version 1).
func (m *Models) Devices() []partition.Device {
	gpuOnSocket := map[int]bool{}
	for _, s := range m.Node.GPUSocket {
		gpuOnSocket[s] = true
	}
	var devs []partition.Device
	for g, gpu := range m.Node.GPUs {
		var cap float64
		if m.Version == gpukernel.V1 {
			cap = m.Node.GPUMemBlocks(g)
		}
		devs = append(devs, partition.Device{Name: gpu.Name, Model: m.GPU[g], MaxUnits: cap})
	}
	for s := range m.Node.Sockets {
		model := m.SocketFull[s]
		name := fmt.Sprintf("S%d", m.Node.Sockets[s].Cores)
		if gpuOnSocket[s] {
			model = m.SocketHost[s]
			name = fmt.Sprintf("S%d", m.Node.Sockets[s].Cores-1)
		}
		devs = append(devs, partition.Device{Name: fmt.Sprintf("%s/socket%d", name, s), Model: model})
	}
	return devs
}

// CPMDevices returns the same devices with constant models probed at
// refUnits — the paper's CPM baseline, whose constants come from
// measurements at one (evenly distributed) workload.
func (m *Models) CPMDevices(refUnits float64) ([]partition.Device, error) {
	devs := m.Devices()
	out := make([]partition.Device, len(devs))
	for i, d := range devs {
		c, err := fpm.ConstantFrom(d.Model, refUnits)
		if err != nil {
			return nil, err
		}
		out[i] = partition.Device{Name: d.Name, Model: c, MaxUnits: d.MaxUnits}
	}
	return out, nil
}

// ProcessShares expands per-device work (in the Devices() order) into
// per-process relative areas matching app.Processes(node, Hybrid) order:
// each socket's share is split evenly among its CPU processes.
func (m *Models) ProcessShares(procs []app.Process, units []int) ([]float64, error) {
	devs := m.Devices()
	if len(units) != len(devs) {
		return nil, fmt.Errorf("experiments: %d unit counts for %d devices", len(units), len(devs))
	}
	nGPUs := len(m.Node.GPUs)
	active := app.ActiveCPUCores(m.Node, procs)
	shares := make([]float64, len(procs))
	for i, p := range procs {
		switch p.Kind {
		case app.GPUHost:
			shares[i] = float64(units[p.GPU])
		case app.CPUCore:
			if active[p.Socket] == 0 {
				return nil, fmt.Errorf("experiments: socket %d has no active cores", p.Socket)
			}
			shares[i] = float64(units[nGPUs+p.Socket]) / float64(active[p.Socket])
		}
		if shares[i] <= 0 {
			// The layout requires positive areas; give starved processes a
			// token sliver (they will round to near-zero rectangles).
			shares[i] = 1e-6
		}
	}
	return shares, nil
}

// HybridLayout partitions an n×n-block problem over the node's processes
// using the given partitioner output and returns the block layout in
// process order.
func (m *Models) HybridLayout(procs []app.Process, units []int, n int) (*layout.BlockLayout, error) {
	shares, err := m.ProcessShares(procs, units)
	if err != nil {
		return nil, err
	}
	l, err := layout.Continuous(shares)
	if err != nil {
		return nil, err
	}
	return l.Discretize(n)
}
