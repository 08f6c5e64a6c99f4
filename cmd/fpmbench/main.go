// Command fpmbench builds functional performance models of the modelled
// hybrid node's processing elements — the paper's Section V measurement
// procedure — and prints them (or writes them as model files fpmd loads).
//
// Usage:
//
//	fpmbench                         # print every device's model
//	fpmbench -device GTX680 -kernel 3
//	fpmbench -out models/            # write models/<device>.json files
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fpmpart/internal/bench"
	"fpmpart/internal/cliutil"
	"fpmpart/internal/fpm"
	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/stats"
	"fpmpart/internal/telemetry"
	"fpmpart/internal/trace"
)

func main() {
	var (
		device   = flag.String("device", "", "only this device (e.g. GTX680, TeslaC870, socket5, socket6)")
		version  = flag.Int("kernel", 2, "GPU kernel version (1, 2 or 3)")
		seed     = flag.Int64("seed", 1, "measurement-noise seed")
		sigma    = flag.Float64("noise", 0.01, "relative measurement noise")
		points   = flag.Int("points", 18, "model points")
		maxSize  = flag.Float64("max", 4000, "largest problem size (blocks)")
		outDir   = flag.String("out", "", "write <device>.json model files into this directory")
		adaptive = flag.Bool("adaptive", false, "place points adaptively where interpolation mispredicts instead of on a fixed grid")
		parallel = cliutil.Parallel()
		tele     cliutil.TelemetryFlags
	)
	tele.Register()
	flag.Parse()

	node := hw.NewIGNode()
	sizes, err := fpm.Grid(8, *maxSize, *points, "geometric")
	if err != nil {
		fatal(err)
	}

	type job struct {
		name   string
		kernel bench.Kernel
	}
	sock := node.Sockets[0]
	var jobs []job
	jobs = append(jobs,
		job{fmt.Sprintf("socket%d", sock.Cores-1), &bench.SocketKernel{
			Socket: sock, Active: sock.Cores - 1, BlockSize: node.BlockSize,
			Noise: stats.NewNoise(*seed, *sigma),
		}},
		job{fmt.Sprintf("socket%d", sock.Cores), &bench.SocketKernel{
			Socket: sock, Active: sock.Cores, BlockSize: node.BlockSize,
			Noise: stats.NewNoise(*seed+1, *sigma),
		}},
	)
	for g, gpu := range node.GPUs {
		jobs = append(jobs, job{gpu.Name, &bench.GPUKernel{
			GPU: gpu, Version: gpukernel.Version(*version),
			BlockSize: node.BlockSize, ElemBytes: node.ElemBytes,
			Noise:     stats.NewNoise(*seed+2+int64(g), *sigma),
			OutOfCore: gpukernel.Version(*version) != gpukernel.V1,
		}})
	}

	unit := node.BlockFlops() / 1e9
	ran := false
	for _, j := range jobs {
		if *device != "" && !strings.EqualFold(j.name, *device) {
			continue
		}
		ran = true
		var (
			model *fpm.PiecewiseLinear
			rep   bench.Report
			err   error
		)
		bopts := bench.Options{Parallelism: *parallel}
		if *adaptive {
			model, rep, err = bench.BuildModelAdaptive(j.kernel, 8, *maxSize,
				bench.AdaptiveOptions{Options: bopts, MaxPoints: *points})
		} else {
			model, rep, err = bench.BuildModel(j.kernel, sizes, bopts)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", j.name, err))
		}
		if inv := fpm.Diagnose(model); len(inv) > 0 {
			fmt.Printf("# note: %s\n", fpm.DescribeModel(model))
		}
		fmt.Printf("# %s (%s): %d points, %d kernel runs, %.2f s of kernel time\n",
			j.name, rep.Kernel, len(rep.Points), rep.TotalRuns, rep.TotalTime)
		fmt.Printf("%10s  %12s  %10s  %5s\n", "blocks", "time s", "Gflops", "reps")
		for _, p := range rep.Points {
			fmt.Printf("%10.0f  %12.4f  %10.1f  %5d\n",
				p.Size, p.MeanTime, p.Size/p.MeanTime*unit, p.Reps)
		}
		fmt.Println()
		if *outDir != "" {
			if err := writeModel(*outDir, j.name, model); err != nil {
				fatal(err)
			}
		}
	}
	if !ran {
		fatal(fmt.Errorf("unknown device %q", *device))
	}
	if tele.TraceOut != "" {
		if err := writeEngineTrace(&tele, node); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (GPU engine schedules, Perfetto-loadable)\n", tele.TraceOut)
	}
}

// writeEngineTrace exports the overlapped (version 3) kernel's engine
// schedule on every GPU — the paper's Figure 4(b) — as a Chrome trace, one
// process per GPU with h2d/compute/d2h threads.
func writeEngineTrace(tele *cliutil.TelemetryFlags, node *hw.Node) error {
	return tele.WriteChromeTrace(func(ct *telemetry.ChromeTrace) error {
		for _, g := range node.GPUs {
			var tl trace.Timeline
			if _, err := gpukernel.ScheduleV3(gpukernel.Invocation{
				GPU: g, BlockSize: node.BlockSize, ElemBytes: node.ElemBytes,
				Rows: 45, Cols: 45,
			}, &tl); err != nil {
				return err
			}
			ct.AddTimeline(g.Name, &tl)
		}
		return nil
	})
}

// writeModel writes m as <dir>/<name>.json in the fpm JSON wire form, the
// file fpmd's -models directory loads.
func writeModel(dir, name string, m *fpm.PiecewiseLinear) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := m.MarshalJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpmbench:", err)
	os.Exit(1)
}
