// Command matmul runs the heterogeneous parallel column-based matrix
// multiplication application.
//
// In simulated mode (-mode sim) it executes on the modelled hybrid node and
// reports per-process and total times, like the paper's experiments:
//
//	matmul -mode sim -config hybrid -n 60
//	matmul -mode sim -config cpu -n 40
//	matmul -mode sim -config gpu -n 40
//
// In real mode (-mode real) it actually multiplies matrices with the pure
// Go GEMM across goroutine processes and verifies the result against a
// direct multiplication:
//
//	matmul -mode real -n 12 -b 32 -procs 8
//
// Trace mode renders the overlapped GPU kernel's engine schedule (the
// paper's Figure 4(b)) as a text Gantt chart:
//
//	matmul -mode trace -n 45
package main

import (
	"flag"
	"fmt"
	"os"

	"fpmpart/internal/app"
	"fpmpart/internal/blas"
	"fpmpart/internal/cliutil"
	"fpmpart/internal/experiments"
	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/layout"
	"fpmpart/internal/matrix"
	"fpmpart/internal/telemetry"
	"fpmpart/internal/trace"
)

func main() {
	var (
		mode     = flag.String("mode", "sim", "sim or real")
		config   = flag.String("config", "hybrid", "sim: cpu, gpu or hybrid")
		n        = flag.Int("n", 40, "matrix size in blocks")
		b        = flag.Int("b", 32, "real mode: block size in elements")
		procs    = flag.Int("procs", 8, "real mode: number of processes")
		version  = flag.Int("kernel", 2, "sim: GPU kernel version")
		seed     = flag.Int64("seed", 1, "measurement-noise seed")
		parallel = cliutil.Parallel()
		tele     cliutil.TelemetryFlags
	)
	tele.Register()
	flag.Parse()
	stopTelemetry, err := tele.Start()
	if err != nil {
		fatal(err)
	}
	switch *mode {
	case "sim":
		err = runSim(&tele, *config, *n, *version, *seed, *parallel)
	case "real":
		err = runReal(*n, *b, *procs)
	case "trace":
		err = runTrace(*n)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	stopTelemetry()
	if err != nil {
		fatal(err)
	}
}

func runSim(tele *cliutil.TelemetryFlags, config string, n, version int, seed int64, parallel int) error {
	node := hw.NewIGNode()
	models, err := experiments.BuildModels(node, experiments.ModelOptions{
		Seed: seed, Version: gpukernel.Version(version), Parallelism: parallel,
	})
	if err != nil {
		return err
	}
	var (
		procs []app.Process
		bl    *layout.BlockLayout
		opts  = app.SimOptions{Version: gpukernel.Version(version), Comm: app.DefaultComm()}
	)
	switch config {
	case "cpu":
		procs, err = app.Processes(node, app.CPUOnly)
		if err != nil {
			return err
		}
		bl, err = evenLayout(len(procs), n)
	case "gpu":
		var p app.Process
		p, err = app.GPUProcess(node, len(node.GPUs)-1)
		if err != nil {
			return err
		}
		procs = []app.Process{p}
		bl, err = evenLayout(1, n)
	case "hybrid":
		procs, err = app.Processes(node, app.Hybrid)
		if err != nil {
			return err
		}
		var part = models
		res, perr := part.PartitionFPM(n)
		if perr != nil {
			return perr
		}
		bl, err = models.HybridLayout(procs, res.Units(), n)
		opts.Contention = true
	default:
		return fmt.Errorf("unknown config %q", config)
	}
	if err != nil {
		return err
	}
	var res app.SimResult
	if tele.TraceOut != "" {
		var tl *trace.Timeline
		res, tl, err = app.SimulateTraced(node, procs, bl, opts, 5)
		if err != nil {
			return err
		}
		if err := tele.WriteChromeTrace(func(ct *telemetry.ChromeTrace) error {
			ct.AddTimelineByLane(tl)
			return nil
		}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (first 5 iterations, Perfetto-loadable)\n", tele.TraceOut)
	} else {
		res, err = app.Simulate(node, procs, bl, opts)
		if err != nil {
			return err
		}
	}
	fmt.Printf("configuration %s, %d x %d blocks (b=%d), %d processes\n",
		config, n, n, node.BlockSize, len(procs))
	fmt.Printf("%-6s %-16s %10s %12s\n", "rank", "process", "blocks", "compute s")
	for _, pt := range res.PerProcess {
		fmt.Printf("%-6d %-16s %10d %12.2f\n", pt.Process.Rank, pt.Process.Name, pt.Area, pt.ComputeSeconds)
	}
	fmt.Printf("\ncompute %.2f s + communication %.2f s = total %.2f s (imbalance %.1f%%)\n",
		res.ComputeSeconds, res.CommSeconds, res.TotalSeconds, res.Imbalance()*100)
	return nil
}

func evenLayout(p, n int) (*layout.BlockLayout, error) {
	areas := make([]float64, p)
	for i := range areas {
		areas[i] = 1
	}
	l, err := layout.Continuous(areas)
	if err != nil {
		return nil, err
	}
	return l.Discretize(n)
}

func runReal(n, b, procs int) error {
	if n <= 0 || b <= 0 || procs <= 0 {
		return fmt.Errorf("invalid real-mode parameters n=%d b=%d procs=%d", n, b, procs)
	}
	fmt.Printf("gemm kernel: default config %s\n", blas.DefaultConfig)
	// Heterogeneous areas 1..5 cycling, like a mixed platform.
	areas := make([]float64, procs)
	for i := range areas {
		areas[i] = float64(1 + i%5)
	}
	l, err := layout.Continuous(areas)
	if err != nil {
		return err
	}
	bl, err := l.Discretize(n)
	if err != nil {
		return err
	}
	dim := n * b
	a := matrix.MustNew(dim, dim)
	bm := matrix.MustNew(dim, dim)
	a.FillRandom(1)
	bm.FillRandom(2)
	c := matrix.MustNew(dim, dim)

	res, err := app.RunReal(bl, b, a, bm, c)
	if err != nil {
		return err
	}
	want := matrix.MustNew(dim, dim)
	if err := blas.Gemm(1, a, bm, 0, want); err != nil {
		return err
	}
	diff := matrix.MaxAbsDiff(c, want)
	fmt.Printf("real run: %d x %d elements, %d processes, %d iterations, %.3f s wall\n",
		dim, dim, procs, res.Iterations, res.WallSeconds)
	fmt.Printf("max |distributed - direct| = %.2e\n", diff)
	if diff > 1e-2 {
		return fmt.Errorf("verification FAILED (diff %v)", diff)
	}
	fmt.Println("verification OK")
	return nil
}

// runTrace prints the version-3 kernel's engine schedule on both GPUs.
func runTrace(n int) error {
	node := hw.NewIGNode()
	for _, g := range node.GPUs {
		var tl trace.Timeline
		bd, err := gpukernel.ScheduleV3(gpukernel.Invocation{
			GPU: g, BlockSize: node.BlockSize, ElemBytes: node.ElemBytes, Rows: n, Cols: n,
		}, &tl)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d x %d blocks, %d tiles, makespan %.3f s (DMA engines: %d)\n",
			g.Name, n, n, bd.Tiles, bd.Makespan, g.DMAEngines)
		if err := tl.Render(os.Stdout, 100); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "matmul:", err)
	os.Exit(1)
}
