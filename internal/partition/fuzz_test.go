package partition_test

import (
	"math"
	"math/rand"
	"testing"

	"fpmpart/internal/fpm"
	"fpmpart/internal/partition"
)

// FuzzRoundShares checks the integer rounding never panics, and that every
// accepted result sums exactly to n with non-negative entries within caps.
func FuzzRoundShares(f *testing.F) {
	f.Add(10, 1.0, 2.0, 3.0, 100.0, 100.0, 100.0)
	f.Add(0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
	f.Add(50, 100.0, 1.0, 0.5, 10.0, 100.0, 5.0)
	f.Add(7, -1.0, 2.0, 3.0, 10.0, 10.0, 10.0)
	f.Fuzz(func(t *testing.T, n int, s1, s2, s3, c1, c2, c3 float64) {
		shares := []float64{s1, s2, s3}
		caps := []float64{c1, c2, c3}
		units, err := partition.RoundShares(shares, n, caps)
		if err != nil {
			return
		}
		total := 0
		for i, u := range units {
			if u < 0 {
				t.Fatalf("negative units %v", units)
			}
			if float64(u) > caps[i]+1e-9 {
				t.Fatalf("units %v exceed caps %v", units, caps)
			}
			total += u
		}
		if total != n {
			t.Fatalf("total %d != n %d (units %v)", total, n, units)
		}
	})
}

// FuzzFPMPartition checks the full FPM solver on arbitrary two-segment
// models: accepted partitions sum to n and respect caps. A second leg draws
// a random fleet from seed (randomFleet: piecewise-linear models with rising,
// falling and jumping times, some capped, some Scaled) and checks the units
// against the reference solver.
func FuzzFPMPartition(f *testing.F) {
	f.Add(100, 50.0, 100.0, 20.0, 80.0, 0.0, 0.0, int64(1))
	f.Add(1000, 900.0, 450.0, 100.0, 100.0, 500.0, 0.0, int64(2))
	f.Add(1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, int64(3))
	f.Fuzz(func(t *testing.T, n int, a1, a2, b1, b2, cap1, cap2 float64, seed int64) {
		devices, fleetN := randomFleet(rand.New(rand.NewSource(seed)))
		assertSameAsReference(t, "random fleet", devices, fleetN)

		if n < 0 || n > 1_000_000 {
			return
		}
		mk := func(s1, s2 float64) partition.Device {
			if !(s1 > 0) || !(s2 > 0) || math.IsInf(s1, 0) || math.IsInf(s2, 0) || s1 > 1e12 || s2 > 1e12 {
				return partition.Device{}
			}
			m, err := newTwoPoint(s1, s2)
			if err != nil {
				return partition.Device{}
			}
			return partition.Device{Name: "d", Model: m}
		}
		d1, d2 := mk(a1, a2), mk(b1, b2)
		if d1.Model == nil || d2.Model == nil {
			return
		}
		if cap1 > 0 && !math.IsInf(cap1, 0) && cap1 < 1e9 {
			d1.MaxUnits = math.Floor(cap1)
		}
		if cap2 > 0 && !math.IsInf(cap2, 0) && cap2 < 1e9 {
			d2.MaxUnits = math.Floor(cap2)
		}
		res, err := partition.FPM([]partition.Device{d1, d2}, n, partition.FPMOptions{})
		if err != nil {
			return
		}
		total := 0
		for _, a := range res.Assignments {
			if a.Units < 0 {
				t.Fatalf("negative assignment %+v", res)
			}
			if a.Device.MaxUnits > 0 && float64(a.Units) > a.Device.MaxUnits {
				t.Fatalf("cap violated: %+v", a)
			}
			total += a.Units
		}
		if total != n {
			t.Fatalf("total %d != n %d", total, n)
		}
	})
}

// newTwoPoint builds a simple two-point piecewise-linear model for fuzzing.
func newTwoPoint(s1, s2 float64) (fpm.SpeedFunction, error) {
	return fpm.NewPiecewiseLinear([]fpm.Point{
		{Size: 10, Speed: s1}, {Size: 1000, Speed: s2},
	})
}
