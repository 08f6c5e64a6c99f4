package resilient_test

import (
	"fmt"

	"fpmpart/internal/fpm"
	"fpmpart/internal/partition"
	"fpmpart/internal/resilient"
)

// Under the Proportional policy, a fault-free run is the dynamic balancer of
// the paper's related work: it redistributes by observed speed between
// iterations, the baseline the paper contrasts with static partitioning.
func ExampleRun() {
	speeds := []float64{4, 1} // units per second: device 0 is 4x faster
	devs := make([]partition.Device, len(speeds))
	for i, s := range speeds {
		model, err := fpm.NewConstant(s)
		if err != nil {
			panic(err)
		}
		devs[i] = partition.Device{Name: fmt.Sprint("dev", i), Model: model}
	}
	oracle := func(device, units, iter int) (float64, error) {
		return float64(units) / speeds[device], nil
	}
	tr, err := resilient.Run(devs, oracle, []int{50, 50}, 8, resilient.Options{Policy: resilient.Proportional})
	if err != nil {
		panic(err)
	}
	fmt.Printf("converged to %v after %d rebalances\n", tr.FinalUnits, tr.Rebalances)
	// Output:
	// converged to [80 20] after 1 rebalances
}
