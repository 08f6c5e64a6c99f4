// Realfpm: build a *real* functional performance model of this machine by
// timing the pure-Go GEMM kernel with the wall clock — the same pipeline
// the paper uses with ACML on its Opterons — then use it to balance work
// between differently-threaded "devices" of the host.
//
// Two devices are modelled: a 1-worker GEMM and an all-cores GEMM. Their
// wall-clock FPMs are built with robust (outlier-filtered) repetition, and
// the FPM partitioner splits a batch of block-updates between them.
package main

import (
	"fmt"
	"log"
	"runtime"

	"fpmpart"
	"fpmpart/internal/bench"
)

func main() {
	const b = 32 // small blocking factor: the example must run in seconds
	cores := runtime.GOMAXPROCS(0)

	single := &bench.RealGEMMKernel{BlockSize: b, Workers: 1}
	multi := &bench.RealGEMMKernel{BlockSize: b, Workers: cores}

	sizes, err := fpmpart.Sizes(4, 512, 8, "geometric")
	if err != nil {
		log.Fatal(err)
	}
	opts := fpmpart.BenchOptions{RelErr: 0.1, MaxReps: 15, Robust: true}

	fmt.Printf("timing the Go GEMM kernel (b=%d) with the wall clock...\n\n", b)
	devices := make([]fpmpart.Device, 0, 2)
	for _, k := range []*bench.RealGEMMKernel{single, multi} {
		model, rep, err := fpmpart.BuildModel(k, sizes, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %3d runs, %6.2f s of kernel time; speed %.2f -> %.2f blocks/ms\n",
			k.Name(), rep.TotalRuns, rep.TotalTime,
			model.Speed(sizes[0])/1e3, model.Speed(sizes[len(sizes)-1])/1e3)
		devices = append(devices, fpmpart.Device{Name: k.Name(), Model: model})
	}

	const n = 2000 // block-updates to distribute
	res, err := fpmpart.PartitionFPM(devices, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFPM partition of %d block-updates:\n", n)
	for _, a := range res.Assignments {
		fmt.Printf("  %-16s %5d blocks  (predicted %.1f ms)\n",
			a.Device.Name, a.Units, a.PredictedTime*1e3)
	}
	fmt.Printf("predicted imbalance: %.1f%%\n", res.Imbalance()*100)
	fmt.Printf("\n(with %d cores the parallel kernel should receive roughly %d× the work\n"+
		" of the single-worker one, modulated by its parallel efficiency)\n", cores, cores)
}
