// Command experiments regenerates the tables and figures of the paper's
// evaluation (and the ablation studies) on the modelled hybrid platform.
//
// Usage:
//
//	experiments                  # run everything
//	experiments table2 figure7   # run selected experiments
//	experiments -list            # list available experiments
//	experiments -csv out/ table3 # also write out/table3.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"fpmpart/internal/cliutil"
	"fpmpart/internal/experiments"
	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/telemetry"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments and exit")
		csvDir   = flag.String("csv", "", "directory to write per-experiment CSV files into")
		md       = flag.Bool("markdown", false, "render tables as markdown instead of aligned text")
		report   = flag.String("report", "", "write a single markdown report of the selected experiments to this file")
		platform = flag.String("platform", "", "JSON platform config to run on (default: the paper's ig node; see -dump-platform)")
		dumpPlat = flag.Bool("dump-platform", false, "print the default platform as JSON config and exit")
		seed     = flag.Int64("seed", 1, "measurement-noise seed")
		sigma    = flag.Float64("noise", 0.01, "relative measurement noise")
		version  = flag.Int("kernel", 2, "GPU kernel version for partitioning experiments (1, 2 or 3)")
		traceN   = flag.Int("trace-n", 60, "problem size (blocks) of the hybrid run exported by -trace-out")
		parallel = cliutil.Parallel()
		tele     cliutil.TelemetryFlags
		flt      cliutil.FaultFlags
	)
	tele.Register()
	flt.Register()
	flag.Parse()

	if err := flt.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}

	if *dumpPlat {
		if err := hw.WriteConfig(os.Stdout, hw.NewIGNode()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	stopTelemetry, err := tele.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	names := flag.Args()
	if len(names) == 0 && tele.TraceOut == "" {
		// With -trace-out and no experiment names, only export the trace.
		names = experiments.Names()
	}
	node := hw.NewIGNode()
	if *platform != "" {
		f, err := os.Open(*platform)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		node, err = hw.ReadConfig(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	opts := experiments.ModelOptions{
		Seed:        *seed,
		NoiseSigma:  *sigma,
		Version:     gpukernel.Version(*version),
		Parallelism: *parallel,
		FaultSpec:   flt.Spec,
		FaultSeed:   flt.Seed,
	}
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := experiments.WriteReport(f, node, opts, names); err != nil {
			fmt.Fprintln(os.Stderr, err)
			f.Close()
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d experiments)\n", *report, len(names))
		stopTelemetry()
		return
	}
	exit := 0
	if err := experiments.Print(os.Stdout, node, opts, names, *md, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit = 1
	}
	if tele.TraceOut != "" {
		if err := writeHybridTrace(&tele, node, opts, *traceN); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			exit = 1
		} else {
			fmt.Fprintf(os.Stderr, "wrote %s (hybrid n=%d run, kernel v3, Perfetto-loadable)\n", tele.TraceOut, *traceN)
		}
	}
	stopTelemetry()
	os.Exit(exit)
}

// writeHybridTrace exports an FPM-partitioned hybrid run on the node as a
// Chrome trace: one lane per CPU core, per GPU engine (host/h2d/compute/d2h,
// the paper's Figure 4(b)) and for the pivot broadcast. Kernel version 3 is
// used so the GPU engine pipeline is visible.
func writeHybridTrace(tele *cliutil.TelemetryFlags, node *hw.Node, opts experiments.ModelOptions, n int) error {
	return tele.WriteChromeTrace(func(ct *telemetry.ChromeTrace) error {
		opts.Version = gpukernel.V3
		models, err := experiments.BuildModels(node, opts)
		if err != nil {
			return err
		}
		part, err := models.PartitionFPM(n)
		if err != nil {
			return err
		}
		_, tl, err := models.RunHybridTraced(part.Units(), n, 5)
		if err != nil {
			return err
		}
		ct.AddTimelineByLane(tl)
		return nil
	})
}
