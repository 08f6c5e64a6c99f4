package fpmpart_test

import (
	"fmt"

	"fpmpart"
)

// The canonical use: describe two heterogeneous devices by speed functions
// and balance a workload between them.
func ExamplePartitionFPM() {
	gpu := fpmpart.MustModel([]fpmpart.ModelPoint{
		{Size: 100, Speed: 900}, {Size: 1300, Speed: 900}, // in device memory
		{Size: 1400, Speed: 450}, {Size: 4000, Speed: 450}, // out of core
	})
	cpu := fpmpart.MustModel([]fpmpart.ModelPoint{
		{Size: 100, Speed: 100}, {Size: 4000, Speed: 100},
	})
	devices := []fpmpart.Device{
		{Name: "gpu", Model: gpu},
		{Name: "cpu", Model: cpu},
	}
	res, err := fpmpart.PartitionFPM(devices, 1000)
	if err != nil {
		panic(err)
	}
	for _, a := range res.Assignments {
		fmt.Printf("%s: %d units\n", a.Device.Name, a.Units)
	}
	// Output:
	// gpu: 900 units
	// cpu: 100 units
}

// The constant-performance baseline misjudges devices whose speed depends
// on problem size: probed in the GPU's fast region, it overloads the GPU at
// sizes where the GPU has already fallen out of device memory.
func ExamplePartitionCPM() {
	gpu := fpmpart.MustModel([]fpmpart.ModelPoint{
		{Size: 100, Speed: 900}, {Size: 1300, Speed: 900},
		{Size: 1400, Speed: 450}, {Size: 8000, Speed: 450},
	})
	cpu := fpmpart.MustModel([]fpmpart.ModelPoint{
		{Size: 100, Speed: 100}, {Size: 8000, Speed: 100},
	})
	devices := []fpmpart.Device{
		{Name: "gpu", Model: gpu},
		{Name: "cpu", Model: cpu},
	}
	cpmRes, _ := fpmpart.PartitionCPM(devices, 6000, 500) // probed in-memory
	fpmRes, _ := fpmpart.PartitionFPM(devices, 6000)
	fmt.Printf("CPM gives the gpu %d of 6000 units\n", cpmRes.Units()[0])
	fmt.Printf("FPM gives the gpu %d of 6000 units\n", fpmRes.Units()[0])
	// Output:
	// CPM gives the gpu 5400 of 6000 units
	// FPM gives the gpu 4909 of 6000 units
}

// Models are built by timing a kernel until the measurement is
// statistically reliable.
func ExampleBuildModel() {
	kernel := &fpmpart.FuncKernel{
		KernelName: "demo",
		F:          func(x float64) (float64, error) { return x / 250, nil },
	}
	sizes, _ := fpmpart.Sizes(10, 1000, 5, "geometric")
	model, report, err := fpmpart.BuildModel(kernel, sizes, fpmpart.BenchOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("measured %d sizes, speed at 500 = %.0f units/s\n",
		len(report.Points), model.Speed(500))
	// Output:
	// measured 5 sizes, speed at 500 = 250 units/s
}

// The column-based layout arranges per-device areas into near-square
// rectangles that tile the matrix exactly.
func ExampleNewLayout() {
	l, err := fpmpart.NewLayout([]float64{4, 2, 1, 1})
	if err != nil {
		panic(err)
	}
	bl, err := l.Discretize(8)
	if err != nil {
		panic(err)
	}
	total := 0.0
	for _, r := range bl.Rects {
		total += r.Area()
	}
	fmt.Printf("%d rectangles covering %.0f blocks\n", len(bl.Rects), total)
	// Output:
	// 4 rectangles covering 64 blocks
}

// The dynamic balancer redistributes by observed speed between iterations —
// the related-work baseline the paper contrasts with static partitioning.
func ExampleRunDynamic() {
	oracle := func(device, units int) float64 {
		perUnit := []float64{0.25, 1.0}[device] // device 0 is 4x faster
		return float64(units) * perUnit
	}
	tr, err := fpmpart.RunDynamic(oracle, []int{50, 50}, 8, fpmpart.DynamicOptions{})
	if err != nil {
		panic(err)
	}
	final := tr.Steps[len(tr.Steps)-1].Units
	fmt.Printf("converged to %v after %d rebalances\n", final, tr.Rebalances)
	// Output:
	// converged to [80 20] after 1 rebalances
}

// Hierarchical partitioning composes across cluster levels: groups are
// summarised by aggregate models, then partitioned internally.
func ExamplePartitionHierarchical() {
	mk := func(speed float64) *fpmpart.Model {
		return fpmpart.MustModel([]fpmpart.ModelPoint{{Size: 10, Speed: speed}, {Size: 100000, Speed: speed}})
	}
	nodeA := []fpmpart.Device{{Name: "a-gpu", Model: mk(300)}, {Name: "a-cpu", Model: mk(100)}}
	nodeB := []fpmpart.Device{{Name: "b-cpu1", Model: mk(100)}, {Name: "b-cpu2", Model: mk(100)}}
	res, err := fpmpart.PartitionHierarchical([][]fpmpart.Device{nodeA, nodeB}, 6000)
	if err != nil {
		panic(err)
	}
	fmt.Printf("node shares: %v\n", res.GroupUnits)
	fmt.Printf("node A internal: %v\n", res.Inner[0].Units())
	// Output:
	// node shares: [4000 2000]
	// node A internal: [3000 1000]
}
