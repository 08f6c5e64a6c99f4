package experiments

import (
	"fmt"
	"time"

	"fpmpart/internal/app"
	"fpmpart/internal/bench"
	"fpmpart/internal/fpm"
	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/layout"
	"fpmpart/internal/par"
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
	// RunLatency adds a fixed sleep to every kernel invocation, emulating
	// the hardware-in-the-loop delay of real model building (where each
	// measurement waits on the device). Used by benchmarks to exercise the
	// worker pools; zero for normal simulation.
	RunLatency time.Duration
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
	if o.RunLatency < 0 {
		return o, fmt.Errorf("experiments: negative run latency %v", o.RunLatency)
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
	bopts := bench.Options{Parallelism: opts.Parallelism}
	m := &Models{
		Node:        node,
		Version:     opts.Version,
		SocketFull:  make([]*fpm.PiecewiseLinear, len(node.Sockets)),
		SocketHost:  make([]*fpm.PiecewiseLinear, len(node.Sockets)),
		GPU:         make([]*fpm.PiecewiseLinear, len(node.GPUs)),
		Parallelism: opts.Parallelism,
	}
	type job struct {
		kernel bench.Kernel
		dst    *[]*fpm.PiecewiseLinear
		idx    int
		what   string
	}
	var jobs []job
	seed := opts.Seed
	for s, sock := range node.Sockets {
		for _, host := range []bool{false, true} {
			active := sock.Cores
			if host {
				active--
			}
			if active < 1 {
				active = 1
			}
			seed++
			k := &bench.SocketKernel{
				Socket: sock, Active: active, BlockSize: node.BlockSize,
				Noise: stats.NewNoise(seed, opts.NoiseSigma),
			}
			dst := &m.SocketFull
			if host {
				dst = &m.SocketHost
			}
			jobs = append(jobs, job{
				kernel: wrapLatency(k, opts.RunLatency), dst: dst, idx: s,
				what: fmt.Sprintf("socket %d (%d cores)", s, active),
			})
		}
	}
	for g, gpu := range node.GPUs {
		seed++
		k := &bench.GPUKernel{
			GPU: gpu, Version: opts.Version,
			BlockSize: node.BlockSize, ElemBytes: node.ElemBytes,
			Noise:     stats.NewNoise(seed, opts.NoiseSigma),
			OutOfCore: opts.Version != gpukernel.V1,
		}
		jobs = append(jobs, job{
			kernel: wrapLatency(k, opts.RunLatency), dst: &m.GPU, idx: g,
			what: fmt.Sprintf("gpu %d (%s)", g, gpu.Name),
		})
	}
	err = par.ForEach(opts.Parallelism, len(jobs), func(i int) error {
		j := jobs[i]
		model, _, err := bench.BuildModel(j.kernel, sizes, bopts)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", j.what, err)
		}
		(*j.dst)[j.idx] = model
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// wrapLatency wraps a kernel in a fixed per-run sleep when latency > 0.
func wrapLatency(k bench.Kernel, latency time.Duration) bench.Kernel {
	if latency <= 0 {
		return k
	}
	return &bench.LatencyKernel{Kernel: k, Latency: latency}
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
