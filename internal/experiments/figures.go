package experiments

import (
	"fmt"

	"fpmpart/internal/app"
	"fpmpart/internal/bench"
	"fpmpart/internal/fpm"
	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/stats"
)

// Figure2 reproduces the paper's Figure 2: the speed functions of one
// socket executing the CPU GEMM kernel on 5 and on 6 cores simultaneously,
// in Gflop/s versus problem size (matrix blocks), single precision, b=640.
func Figure2(node *hw.Node, opts ModelOptions) (*Table, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := node.Validate(); err != nil {
		return nil, err
	}
	sock := node.Sockets[0]
	t := &Table{
		ID:    "figure2",
		Title: fmt.Sprintf("Speed functions of a socket (%s), s5(x) and s6(x), b=%d", sock.Name, node.BlockSize),
		Columns: []string{
			"blocks", fmt.Sprintf("s%d Gflops", sock.Cores-1), fmt.Sprintf("s%d Gflops", sock.Cores),
		},
		Notes: []string{
			"paper: full-socket plateau ≈105 Gflop/s, 5-core ≈8-15% below, both rising with problem size",
		},
	}
	sizes, err := fpm.Grid(8, 1280, 16, "geometric")
	if err != nil {
		return nil, err
	}
	var curves []curve
	for i, active := range []int{sock.Cores - 1, sock.Cores} {
		curves = append(curves, curve{&bench.SocketKernel{
			Socket: sock, Active: active, BlockSize: node.BlockSize,
			Noise: stats.NewNoise(opts.Seed+int64(i), opts.NoiseSigma),
		}, sizes})
	}
	models, err := buildCurves(opts, curves...)
	if err != nil {
		return nil, err
	}
	unit := node.BlockFlops() / 1e9
	for _, x := range sizes {
		t.AddRow(int(x),
			models[0].Speed(x)*unit,
			models[1].Speed(x)*unit)
	}
	return t, nil
}

// Figure3 reproduces the paper's Figure 3: the GeForce GTX680 speed
// functions for the three kernel versions — host-resident C (version 1),
// device-resident C with out-of-core tiling (version 2), and out-of-core
// with communication/computation overlap (version 3) — with the device
// memory limit marked.
func Figure3(node *hw.Node, opts ModelOptions) (*Table, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := node.Validate(); err != nil {
		return nil, err
	}
	g := fastGPU(node)
	gpu := node.GPUs[g]
	memBlocks := node.GPUMemBlocks(g)
	t := &Table{
		ID:      "figure3",
		Title:   fmt.Sprintf("Speed functions of %s for kernel versions 1-3, b=%d", gpu.Name, node.BlockSize),
		Columns: []string{"blocks", "v1 Gflops", "v2 Gflops", "v3 Gflops", "in-memory"},
		Notes: []string{
			fmt.Sprintf("device memory limit ≈ %.0f blocks", memBlocks),
			"paper: v2 ≈ 2×v1 while C fits device memory, sharp drop past the limit, overlap (v3) recovers ≈30%",
		},
	}
	sizes, err := fpm.Grid(16, opts.MaxBlocks, opts.Points, "geometric")
	if err != nil {
		return nil, err
	}
	unit := node.BlockFlops() / 1e9
	var curves []curve
	for i, v := range []gpukernel.Version{gpukernel.V1, gpukernel.V2, gpukernel.V3} {
		curves = append(curves, curve{&bench.GPUKernel{
			GPU: gpu, Version: v, BlockSize: node.BlockSize, ElemBytes: node.ElemBytes,
			Noise: stats.NewNoise(opts.Seed+10+int64(i), opts.NoiseSigma), OutOfCore: true,
		}, sizes})
	}
	models, err := buildCurves(opts, curves...)
	if err != nil {
		return nil, err
	}
	for _, x := range sizes {
		inMem := "no"
		if x+2*16 <= memBlocks { // approximate: C plus pivot margins
			inMem = "yes"
		}
		t.AddRow(int(x),
			models[0].Speed(x)*unit,
			models[1].Speed(x)*unit,
			models[2].Speed(x)*unit,
			inMem)
	}
	return t, nil
}

// Figure5 reproduces the paper's Figure 5: the impact of CPU↔GPU resource
// contention on the speed functions when both kernels run on one socket.
// Part (a): the socket's CPU cores under 1:10 and 1:5 CPU:GPU workload
// splits against the CPU-only curve; part (b): the GPU against its
// uncontended curve. Rows are tagged "cpu" and "gpu".
func Figure5(node *hw.Node, opts ModelOptions) (*Table, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := node.Validate(); err != nil {
		return nil, err
	}
	if len(node.GPUs) == 0 {
		return nil, fmt.Errorf("experiments: figure5 needs a GPU")
	}
	g := fastGPU(node) // the paper uses the GTX680
	gpu := node.GPUs[g]
	sock := node.Sockets[node.GPUSocket[g]]
	hostCores := sock.Cores - 1

	t := &Table{
		ID:    "figure5",
		Title: fmt.Sprintf("Resource contention on one socket: %d cores + %s", hostCores, gpu.Name),
		Columns: []string{
			"part", "blocks", "exclusive Gflops", "shared 1:10 Gflops", "shared 1:5 Gflops",
		},
		Notes: []string{
			fmt.Sprintf("model: CPU keeps %.0f%% of its speed, GPU %.0f%% under contention (paper: CPUs barely affected, GPU drops 7-15%%, ≈85%% model accuracy)",
				node.CPUContention*100, node.GPUContention*100),
		},
	}
	unit := node.BlockFlops() / 1e9

	cpuSizes, err := fpm.Grid(8, 1280, 12, "geometric")
	if err != nil {
		return nil, err
	}
	gpuSizes, err := fpm.Grid(16, opts.MaxBlocks, 12, "geometric")
	if err != nil {
		return nil, err
	}
	// All six arms — exclusive plus two contended splits for the CPU cores
	// and for the GPU — are independent model builds; measure them on the
	// pool and assemble the rows afterwards. The contention coefficient is
	// workload-independent in the model, matching the paper's finding that
	// the CPU curves coincide for both splits.
	var curves []curve
	for i, f := range []float64{1, node.CPUContention, node.CPUContention} {
		curves = append(curves, curve{&bench.SocketKernel{
			Socket: sock, Active: hostCores, BlockSize: node.BlockSize,
			Noise:       stats.NewNoise(opts.Seed+20+int64(i), opts.NoiseSigma),
			SpeedFactor: f,
		}, cpuSizes})
	}
	for i, f := range []float64{1, node.GPUContention, node.GPUContention} {
		curves = append(curves, curve{&bench.GPUKernel{
			GPU: gpu, Version: opts.Version, BlockSize: node.BlockSize, ElemBytes: node.ElemBytes,
			Noise:       stats.NewNoise(opts.Seed+30+int64(i), opts.NoiseSigma),
			SpeedFactor: f, OutOfCore: true,
		}, gpuSizes})
	}
	models, err := buildCurves(opts, curves...)
	if err != nil {
		return nil, err
	}
	cpuModels, gpuModels := models[:3], models[3:]
	for _, x := range cpuSizes {
		t.AddRow("cpu", int(x), cpuModels[0].Speed(x)*unit,
			fmt.Sprintf("%.1f", cpuModels[1].Speed(x)*unit),
			fmt.Sprintf("%.1f", cpuModels[2].Speed(x)*unit))
	}
	for _, x := range gpuSizes {
		t.AddRow("gpu", int(x), gpuModels[0].Speed(x)*unit,
			fmt.Sprintf("%.1f", gpuModels[1].Speed(x)*unit),
			fmt.Sprintf("%.1f", gpuModels[2].Speed(x)*unit))
	}
	return t, nil
}

// Figure6 reproduces the paper's Figure 6: the computation time of each of
// the node's processes at matrix size n×n blocks under CPM-based and
// FPM-based partitioning. Under CPM the fast GPU is overloaded and finishes
// far later than everyone else; under FPM all processes finish together.
func Figure6(models *Models, n int) (*Table, error) {
	procs, err := app.Processes(models.Node, app.Hybrid)
	if err != nil {
		return nil, err
	}
	cpmRes, fpmRes, err := runCPMandFPM(models, procs, n)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "figure6",
		Title:   fmt.Sprintf("Per-process computation time at n=%d (CPM vs FPM partitioning)", n),
		Columns: []string{"rank", "process", "CPM blocks", "CPM sec", "FPM blocks", "FPM sec"},
		Notes: []string{
			fmt.Sprintf("CPM max/min imbalance = %.2f, FPM = %.2f (paper: CPM overloads the GTX680; FPM reduces computation time by ≈40%%)",
				cpmRes.Imbalance(), fpmRes.Imbalance()),
			fmt.Sprintf("slowest process: CPM %.1f s, FPM %.1f s", cpmRes.ComputeSeconds, fpmRes.ComputeSeconds),
		},
	}
	for i, p := range procs {
		t.AddRow(p.Rank, p.Name,
			cpmRes.PerProcess[i].Area, cpmRes.PerProcess[i].ComputeSeconds,
			fpmRes.PerProcess[i].Area, fpmRes.PerProcess[i].ComputeSeconds)
	}
	return t, nil
}

// Figure7 reproduces the paper's Figure 7: total execution time of the
// application (communication included) under homogeneous, CPM-based and
// FPM-based partitioning, for matrix sizes n = 10..80 blocks.
func Figure7(models *Models, ns []int) (*Table, error) {
	if len(ns) == 0 {
		ns = []int{10, 20, 30, 40, 50, 60, 70, 80}
	}
	procs, err := app.Processes(models.Node, app.Hybrid)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "figure7",
		Title:   "Execution time of parallel matrix multiplication vs partitioning algorithm",
		Columns: []string{"n", "homogeneous s", "CPM s", "FPM s"},
		Notes: []string{
			"paper: FPM ≈ -30% vs CPM and ≈ -45% vs homogeneous at large n; all three comparable at small n",
		},
	}
	type row struct{ hom, cpm, fpm float64 }
	rows := make([]row, len(ns))
	err = models.forEachUnit(len(ns), func(i int) error {
		hom, err := runHomogeneous(models, procs, ns[i])
		if err != nil {
			return err
		}
		cpmRes, fpmRes, err := runCPMandFPM(models, procs, ns[i])
		if err != nil {
			return err
		}
		rows[i] = row{hom.TotalSeconds, cpmRes.TotalSeconds, fpmRes.TotalSeconds}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		t.AddRow(n, rows[i].hom, rows[i].cpm, rows[i].fpm)
	}
	return t, nil
}
