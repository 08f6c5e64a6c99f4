package experiments

import (
	"fmt"

	"fpmpart/internal/app"
	"fpmpart/internal/bench"
	"fpmpart/internal/comm"
	"fpmpart/internal/fpm"
	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/layout"
	"fpmpart/internal/partition"
	"fpmpart/internal/stats"
)

// Ablation experiments probe the design choices DESIGN.md calls out. They
// go beyond the paper's own evaluation but use only its machinery.

// AblationPartitioners compares the FPM partitioner with the CPM baseline:
// predicted imbalance for several problem sizes.
func AblationPartitioners(models *Models, ns []int) (*Table, error) {
	if len(ns) == 0 {
		ns = []int{40, 60, 80}
	}
	t := &Table{
		ID:      "ablation-partitioners",
		Title:   "Partitioning algorithms: predicted imbalance (max/min time - 1)",
		Columns: []string{"n", "FPM", "CPM"},
		Notes:   []string{"FPM solves the equal-time problem on the functional models; CPM ignores the size-dependence"},
	}
	devs := models.Devices()
	type row struct{ bis, cpmTrue float64 }
	rows := make([]row, len(ns))
	err := models.forEachUnit(len(ns), func(i int) error {
		n := ns[i]
		bis, err := partition.FPM(devs, n*n, partition.FPMOptions{})
		if err != nil {
			return err
		}
		cpmDevs, err := models.CPMDevices(CPMRefBlocks)
		if err != nil {
			return err
		}
		cpm, err := partition.CPM(cpmDevs, n*n, CPMRefBlocks)
		if err != nil {
			return err
		}
		// Evaluate the CPM distribution against the true (functional)
		// models — the paper's point: the distribution looks balanced to
		// the constant model but is not in reality.
		rows[i] = row{bis.Imbalance(), evalAgainst(devs, cpm.Units())}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		t.AddRow(n,
			fmt.Sprintf("%.3f", rows[i].bis),
			fmt.Sprintf("%.3f", rows[i].cpmTrue))
	}
	return t, nil
}

// evalAgainst computes the max/min-1 imbalance of a unit distribution when
// evaluated under the given (true) device models.
func evalAgainst(devs []partition.Device, units []int) float64 {
	var lo, hi float64
	lo = -1
	for i, d := range devs {
		if units[i] == 0 {
			continue
		}
		ti := fpm.Time(d.Model, float64(units[i]))
		if lo < 0 || ti < lo {
			lo = ti
		}
		if ti > hi {
			hi = ti
		}
	}
	if lo <= 0 {
		return 0
	}
	return hi/lo - 1
}

// AblationKernelVersions compares hybrid-FPM execution time when the GPUs
// run kernel version 1, 2 or 3 — the value of device-resident accumulation
// and of copy/compute overlap at application level.
func AblationKernelVersions(node *hw.Node, ns []int, opts ModelOptions) (*Table, error) {
	if len(ns) == 0 {
		ns = []int{40, 60}
	}
	t := &Table{
		ID:      "ablation-kernels",
		Title:   "Hybrid-FPM execution time by GPU kernel version (seconds)",
		Columns: []string{"n", "v1 (host C)", "v2 (device C)", "v3 (overlap)"},
		Notes:   []string{"v1 models carry the device-memory cap: the partitioner must keep GPU work within device memory"},
	}
	// The three kernel-version curves are independent (each builds its own
	// models); results land in a [version][n] grid so the rows assemble
	// identically at any pool width.
	versions := []gpukernel.Version{gpukernel.V1, gpukernel.V2, gpukernel.V3}
	cells := make([][]string, len(versions))
	err := opts.forEachUnit(len(versions), func(vi int) error {
		o := opts
		o.Version = versions[vi]
		models, err := BuildModels(node, o)
		if err != nil {
			return err
		}
		procs, err := app.Processes(node, app.Hybrid)
		if err != nil {
			return err
		}
		cells[vi] = make([]string, len(ns))
		for ni, n := range ns {
			part, err := models.PartitionFPM(n)
			if err != nil {
				return err
			}
			res, err := runWithUnits(models, procs, part.Units(), n)
			if err != nil {
				return err
			}
			cells[vi][ni] = fmt.Sprintf("%.1f", res.TotalSeconds)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ni, n := range ns {
		t.AddRow(n, cells[0][ni], cells[1][ni], cells[2][ni])
	}
	return t, nil
}

// AblationDMAEngines compares the out-of-core overlapped kernel (version 3)
// on the fast GPU with one versus two DMA engines — isolating the value of
// concurrent bidirectional transfers that separates the GTX680 from the
// Tesla C870 in the paper.
func AblationDMAEngines(node *hw.Node, opts ModelOptions) (*Table, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	g := len(node.GPUs) - 1
	for i, gpu := range node.GPUs {
		if gpu.DMAEngines == 2 {
			g = i
		}
	}
	base := node.GPUs[g]
	single := *base
	single.DMAEngines = 1
	t := &Table{
		ID:      "ablation-dma",
		Title:   fmt.Sprintf("Out-of-core v3 kernel speed on %s: 2 vs 1 DMA engines", base.Name),
		Columns: []string{"blocks", "2 engines Gflops", "1 engine Gflops", "ratio"},
		Notes:   []string{"the gap is the benefit of concurrent bidirectional transfers (paper: C870 gains less from overlap)"},
	}
	unit := node.BlockFlops() / 1e9
	sizes, err := fpm.Grid(1600, opts.MaxBlocks, 6, "geometric")
	if err != nil {
		return nil, err
	}
	for _, x := range sizes {
		two := &bench.GPUKernel{GPU: base, Version: gpukernel.V3, BlockSize: node.BlockSize, ElemBytes: node.ElemBytes, OutOfCore: true}
		one := &bench.GPUKernel{GPU: &single, Version: gpukernel.V3, BlockSize: node.BlockSize, ElemBytes: node.ElemBytes, OutOfCore: true}
		t2, err := two.Run(x)
		if err != nil {
			return nil, err
		}
		t1, err := one.Run(x)
		if err != nil {
			return nil, err
		}
		s2, s1 := x/t2*unit, x/t1*unit
		t.AddRow(int(x), s2, s1, fmt.Sprintf("%.2f", s2/s1))
	}
	return t, nil
}

// AblationSocketFPM contrasts the paper's socket-level measurement (all
// cores benchmarked together) with the naive alternative — benchmark one
// core alone and multiply by the core count — and shows the imbalance the
// naive model causes, i.e. why the paper measures cores in groups.
func AblationSocketFPM(node *hw.Node, opts ModelOptions) (*Table, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	sock := node.Sockets[0]
	sizes, err := fpm.Grid(8, 1280, 12, "geometric")
	if err != nil {
		return nil, err
	}
	soloSizes := make([]float64, len(sizes))
	for i, x := range sizes {
		soloSizes[i] = x / float64(sock.Cores)
	}
	bopts := bench.Options{Parallelism: opts.Parallelism}
	var groupModel, soloModel *fpm.PiecewiseLinear
	err = opts.forEachUnit(2, func(i int) error {
		var err error
		if i == 0 {
			group := &bench.SocketKernel{Socket: sock, Active: sock.Cores, BlockSize: node.BlockSize,
				Noise: stats.NewNoise(opts.Seed+40, opts.NoiseSigma)}
			groupModel, _, err = bench.BuildModel(group, sizes, bopts)
		} else {
			solo := &bench.SocketKernel{Socket: sock, Active: 1, BlockSize: node.BlockSize,
				Noise: stats.NewNoise(opts.Seed+41, opts.NoiseSigma)}
			soloModel, _, err = bench.BuildModel(solo, soloSizes, bopts)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-socket-fpm",
		Title:   fmt.Sprintf("Socket model: measured-in-group vs naive per-core x%d (Gflop/s)", sock.Cores),
		Columns: []string{"blocks", "group Gflops", "naive Gflops", "overestimate"},
		Notes:   []string{"the naive model ignores shared-resource contention and overestimates the socket"},
	}
	unit := node.BlockFlops() / 1e9
	for _, x := range sizes {
		g := groupModel.Speed(x) * unit
		n := soloModel.Speed(x/float64(sock.Cores)) * float64(sock.Cores) * unit
		t.AddRow(int(x), g, n, fmt.Sprintf("%.0f%%", (n/g-1)*100))
	}
	return t, nil
}

// AblationBlockingFactor sweeps the blocking factor b, which trades kernel
// efficiency and communication volume against partitioning granularity
// (Section V discusses, but does not measure, this trade-off).
func AblationBlockingFactor(base *hw.Node, bs []int, n int, opts ModelOptions) (*Table, error) {
	if len(bs) == 0 {
		bs = []int{320, 640, 1280}
	}
	if n <= 0 {
		// Default to a size whose GPU shares spill out of device memory:
		// that is where the blocking factor drives host-device traffic.
		n = 60
	}
	t := &Table{
		ID:      "ablation-blocking",
		Title:   fmt.Sprintf("Blocking factor sweep at constant matrix size (%d x b elements)", n),
		Columns: []string{"b", "blocks n", "hybrid-FPM s", "comm s", "imbalance"},
		Notes:   []string{"larger b improves kernels and reduces broadcasts but coarsens the partition"},
	}
	elems := n * base.BlockSize // keep the element count constant across b
	for _, b := range bs {
		node := *base
		node.BlockSize = b
		nb := elems / b
		if nb < 1 {
			continue
		}
		o, err := opts.withDefaults()
		if err != nil {
			return nil, err
		}
		o.Version = gpukernel.V2
		// Keep the measured element range constant: the block count of a
		// given problem scales with (base b / b)².
		scale := float64(base.BlockSize) / float64(b)
		o.MaxBlocks *= scale * scale
		models, err := BuildModels(&node, o)
		if err != nil {
			return nil, err
		}
		procs, err := app.Processes(&node, app.Hybrid)
		if err != nil {
			return nil, err
		}
		part, err := models.PartitionFPM(nb)
		if err != nil {
			return nil, err
		}
		res, err := runWithUnits(models, procs, part.Units(), nb)
		if err != nil {
			return nil, err
		}
		t.AddRow(b, nb, res.TotalSeconds, fmt.Sprintf("%.2f", res.CommSeconds), fmt.Sprintf("%.2f", res.Imbalance()))
	}
	return t, nil
}

// AblationLayout compares the column-based 2D arrangement against the naive
// 1D (full-width slab) partitioning at identical workload shares: same
// balance, different communication volume — the property for which the
// paper adopts the column-based algorithm of reference [17].
func AblationLayout(models *Models, ns []int) (*Table, error) {
	if len(ns) == 0 {
		ns = []int{40, 60, 80}
	}
	procs, err := app.Processes(models.Node, app.Hybrid)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-layout",
		Title:   "Column-based vs 1D matrix partitioning under identical FPM shares",
		Columns: []string{"n", "column comm blocks", "1D comm blocks", "column total s", "1D total s"},
		Notes:   []string{"the column-based DP minimises Σ(w+h); 1D slabs cost p+1 widths of pivot traffic"},
	}
	for _, n := range ns {
		part, err := models.PartitionFPM(n)
		if err != nil {
			return nil, err
		}
		shares, err := models.ProcessShares(procs, part.Units())
		if err != nil {
			return nil, err
		}
		col, err := layout.Continuous(shares)
		if err != nil {
			return nil, err
		}
		colBL, err := col.Discretize(n)
		if err != nil {
			return nil, err
		}
		oneD, err := layout.OneD(shares)
		if err != nil {
			return nil, err
		}
		oneBL, err := oneD.Discretize(n)
		if err != nil {
			return nil, err
		}
		colRes, err := app.Simulate(models.Node, procs, colBL, models.simOptions())
		if err != nil {
			return nil, err
		}
		oneRes, err := app.Simulate(models.Node, procs, oneBL, models.simOptions())
		if err != nil {
			return nil, err
		}
		t.AddRow(n,
			fmt.Sprintf("%.0f", colBL.CommVolume()),
			fmt.Sprintf("%.0f", oneBL.CommVolume()),
			colRes.TotalSeconds, oneRes.TotalSeconds)
	}
	return t, nil
}

// AblationCommModels compares the scalar communication model (aggregate
// volume over a bandwidth, the level of fidelity the paper itself uses)
// against message-level scheduled communication (internal/comm): pivot
// transfers on per-process links under an aggregate cap. Both applied to
// the same FPM partition.
func AblationCommModels(models *Models, ns []int) (*Table, error) {
	if len(ns) == 0 {
		ns = []int{40, 60}
	}
	procs, err := app.Processes(models.Node, app.Hybrid)
	if err != nil {
		return nil, err
	}
	net := comm.DefaultNetwork()
	t := &Table{
		ID:      "ablation-comm",
		Title:   "Communication models: aggregate-volume vs message-level scheduling (seconds)",
		Columns: []string{"n", "scalar comm s", "scheduled comm s", "compute s", "comm share"},
		Notes: []string{
			"the paper counts communication volume only; both models agree that communication is a minor fraction of the run, validating that simplification",
		},
	}
	for _, n := range ns {
		part, err := models.PartitionFPM(n)
		if err != nil {
			return nil, err
		}
		bl, err := models.HybridLayout(procs, part.Units(), n)
		if err != nil {
			return nil, err
		}
		scalar, err := app.Simulate(models.Node, procs, bl, app.SimOptions{
			Version: models.Version, Contention: true, Comm: app.DefaultComm(),
		})
		if err != nil {
			return nil, err
		}
		sched, err := app.Simulate(models.Node, procs, bl, app.SimOptions{
			Version: models.Version, Contention: true, Network: &net,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(n,
			fmt.Sprintf("%.2f", scalar.CommSeconds),
			fmt.Sprintf("%.2f", sched.CommSeconds),
			scalar.ComputeSeconds,
			fmt.Sprintf("%.1f%%", 100*sched.CommSeconds/sched.TotalSeconds))
	}
	return t, nil
}
