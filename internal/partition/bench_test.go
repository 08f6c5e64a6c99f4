package partition_test

import (
	"fmt"
	"math/rand"
	"testing"

	"fpmpart/internal/partition"
	"fpmpart/internal/service"
)

// BenchmarkFPM times one equal-time solve over the fleets fpmd serves in the
// benchmark: 16-knot synthetic models with a ramp, a plateau and an
// out-of-core decline, at the problem sizes its cold workload asks for.
func BenchmarkFPM(b *testing.B) {
	for _, p := range []int{6, 24, 96} {
		rng := rand.New(rand.NewSource(int64(p)))
		devices := make([]partition.Device, p)
		for i := range devices {
			devices[i] = partition.Device{
				Name:  fmt.Sprintf("d%d", i),
				Model: service.SyntheticModel(16, 100+900*rng.Float64()),
			}
		}
		sizes := make([]int, 64)
		for i := range sizes {
			sizes[i] = p * (60 + rng.Intn(190))
		}
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			evals := 0
			for i := 0; i < b.N; i++ {
				res, err := partition.FPM(devices, sizes[i%len(sizes)], partition.FPMOptions{})
				if err != nil {
					b.Fatal(err)
				}
				evals += res.Iterations
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
}
