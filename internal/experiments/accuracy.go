package experiments

import (
	"fmt"

	"fpmpart/internal/app"
	"fpmpart/internal/bench"
	"fpmpart/internal/fpm"
	"fpmpart/internal/hw"
	"fpmpart/internal/stats"
)

// AblationModelAccuracy measures how well each model family predicts the
// true (noiseless) kernel times of the fast GPU across problem sizes: the
// piecewise-linear FPM, the monotone-cubic FPM built from the same points,
// and the CPM constant. It quantifies the paper's central claim — the CPM
// is accurate only near its reference size, the FPM everywhere.
func AblationModelAccuracy(node *hw.Node, opts ModelOptions) (*Table, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := node.Validate(); err != nil {
		return nil, err
	}
	gpu := node.GPUs[fastGPU(node)]
	kernel := func(noise *stats.Noise) *bench.GPUKernel {
		return &bench.GPUKernel{
			GPU: gpu, Version: opts.Version, BlockSize: node.BlockSize,
			ElemBytes: node.ElemBytes, Noise: noise, OutOfCore: true,
		}
	}
	sizes, err := fpm.Grid(16, opts.MaxBlocks, opts.Points, "geometric")
	if err != nil {
		return nil, err
	}
	linModel, _, err := bench.BuildModel(kernel(stats.NewNoise(opts.Seed+50, opts.NoiseSigma)), sizes, bench.Options{Parallelism: opts.Parallelism})
	if err != nil {
		return nil, err
	}
	cubModel, err := fpm.NewMonotoneCubic(linModel.Points())
	if err != nil {
		return nil, err
	}
	cpm, err := fpm.ConstantFrom(linModel, CPMRefBlocks)
	if err != nil {
		return nil, err
	}

	// Reference truth: the noiseless kernel on a dense validation grid,
	// offset from the training grid.
	truth := kernel(nil)
	valSizes, err := fpm.Grid(24, opts.MaxBlocks*0.98, 3*opts.Points, "geometric")
	if err != nil {
		return nil, err
	}
	var ref []fpm.TimeSample
	for _, x := range valSizes {
		tt, err := truth.Run(x)
		if err != nil {
			return nil, err
		}
		ref = append(ref, fpm.TimeSample{Size: x, Seconds: tt})
	}

	t := &Table{
		ID:    "ablation-model-accuracy",
		Title: fmt.Sprintf("Prediction error of model families on %s kernel times", gpu.Name),
		Columns: []string{
			"model", "mean rel err", "max rel err",
		},
		Notes: []string{
			fmt.Sprintf("validation: %d noiseless kernel timings between the training points; CPM probed at %d blocks", len(ref), CPMRefBlocks),
			"the CPM's max error is its misprediction of the out-of-core regime — the root cause of Table III's overload",
		},
	}
	for _, m := range []struct {
		name  string
		model fpm.SpeedFunction
	}{
		{"piecewise-linear FPM", linModel},
		{"monotone-cubic FPM", cubModel},
		{"CPM constant", cpm},
	} {
		mean, max, err := fpm.Accuracy(m.model, ref)
		if err != nil {
			return nil, err
		}
		t.AddRow(m.name, fmt.Sprintf("%.1f%%", mean*100), fmt.Sprintf("%.1f%%", max*100))
	}
	return t, nil
}

// AblationContentionModels tests the paper's Section V conclusion from the
// other side: Figure 5 shows the exclusive GPU model is only ≈85–90%
// accurate under CPU contention; this ablation builds the GPU models *with*
// the contention coefficient folded in and compares the hybrid run's
// realised imbalance against partitioning from exclusive models.
func AblationContentionModels(node *hw.Node, ns []int, opts ModelOptions) (*Table, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(ns) == 0 {
		ns = []int{40, 60}
	}
	t := &Table{
		ID:      "ablation-contention-models",
		Title:   "Partitioning from exclusive vs contention-aware GPU models",
		Columns: []string{"n", "exclusive imbalance", "aware imbalance", "exclusive total s", "aware total s"},
		Notes: []string{
			"exclusive models (the paper's method) are ≈85-90% accurate for GPUs under contention",
			"folding the coefficient in helps once the GPU share is large (out-of-core sizes); at small sizes integer-rectangle rounding dominates either way — supporting the paper's choice to keep the simpler exclusive measurement",
		},
	}
	// The exclusive and contention-aware model sets are independent builds.
	// The aware set measures each device while the rest of the node loads
	// it (the coefficients applied), on its own noise seeds.
	var exclusive, aware *Models
	err = opts.forEachUnit(2, func(i int) error {
		var err error
		if i == 0 {
			exclusive, err = BuildModels(node, opts)
		} else {
			o := opts
			o.Seed += 1000
			aware, err = buildModels(node, o, node.CPUContention, node.GPUContention)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	procs, err := app.Processes(node, app.Hybrid)
	if err != nil {
		return nil, err
	}
	type row struct{ imb, tot [2]float64 }
	rows := make([]row, len(ns))
	err = opts.forEachUnit(len(ns), func(i int) error {
		n := ns[i]
		for j, m := range []*Models{exclusive, aware} {
			part, err := m.PartitionFPM(n)
			if err != nil {
				return err
			}
			res, err := runWithUnits(m, procs, part.Units(), n)
			if err != nil {
				return err
			}
			rows[i].imb[j] = res.Imbalance()
			rows[i].tot[j] = res.TotalSeconds
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		t.AddRow(n, fmt.Sprintf("%.2f", rows[i].imb[0]), fmt.Sprintf("%.2f", rows[i].imb[1]),
			rows[i].tot[0], rows[i].tot[1])
	}
	return t, nil
}

// AblationNoise measures the partitioning method's robustness to
// measurement noise: models are rebuilt at several noise levels with
// multiple seeds, and the spread of the fast GPU's share and the realised
// imbalance are reported. The paper controls noise with the
// repeat-until-reliable loop; this quantifies how much that matters.
func AblationNoise(node *hw.Node, n int, opts ModelOptions) (*Table, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		n = 60
	}
	const seeds = 3
	t := &Table{
		ID:      "ablation-noise",
		Title:   fmt.Sprintf("Sensitivity to measurement noise at n=%d (%d seeds per level)", n, seeds),
		Columns: []string{"noise sigma", "G1 share min..max", "share spread", "worst imbalance"},
		Notes: []string{
			"the repeat-until-reliable loop keeps per-point error ≈2.5%, so even 5% raw noise leaves the partition stable",
		},
	}
	procs, err := app.Processes(node, app.Hybrid)
	if err != nil {
		return nil, err
	}
	gtx := fastGPU(node)
	// Every (sigma, seed) arm rebuilds models from scratch, so all of them
	// run as one flat fan-out; the per-sigma aggregates (min/max share,
	// worst imbalance) are folded sequentially afterwards.
	sigmas := []float64{0.002, 0.01, 0.05}
	type arm struct {
		share     int
		imbalance float64
	}
	arms := make([]arm, len(sigmas)*seeds)
	err = opts.forEachUnit(len(arms), func(i int) error {
		o := opts
		o.NoiseSigma = sigmas[i/seeds]
		o.Seed = opts.Seed + 100*int64(i%seeds)
		models, err := BuildModels(node, o)
		if err != nil {
			return err
		}
		part, err := models.PartitionFPM(n)
		if err != nil {
			return err
		}
		res, err := runWithUnits(models, procs, part.Units(), n)
		if err != nil {
			return err
		}
		arms[i] = arm{share: part.Units()[gtx], imbalance: res.Imbalance()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si, sigma := range sigmas {
		lo, hi := -1, -1
		worst := 0.0
		for s := 0; s < seeds; s++ {
			a := arms[si*seeds+s]
			if lo < 0 || a.share < lo {
				lo = a.share
			}
			if a.share > hi {
				hi = a.share
			}
			if a.imbalance > worst {
				worst = a.imbalance
			}
		}
		t.AddRow(fmt.Sprintf("%.1f%%", sigma*100),
			fmt.Sprintf("%d..%d", lo, hi),
			fmt.Sprintf("%.1f%%", 100*float64(hi-lo)/float64(hi)),
			fmt.Sprintf("%.2f", worst))
	}
	return t, nil
}
