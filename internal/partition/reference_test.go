package partition_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fpmpart/internal/experiments"
	"fpmpart/internal/fpm"
	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/partition"
	"fpmpart/internal/service"
)

// The reference solver: the nested bisection FPM used before fpm.SizeFor
// had a closed form — the same outer bisection on T, with x_i(T) found by a
// numeric bisection on the envelope time evaluated from its definition. The
// production solver must hand RoundShares shares close enough to these that
// the integer partition is the same.

func refEnvelopeTime(pl *fpm.PiecewiseLinear, knots []fpm.Point, x float64) float64 {
	t := fpm.Time(pl, x)
	for _, p := range knots {
		if p.Size >= x {
			break
		}
		t = math.Max(t, fpm.Time(pl, p.Size))
	}
	return t
}

func refSizeFor(pl *fpm.PiecewiseLinear, knots []fpm.Point, T, sizeCap float64) float64 {
	if sizeCap <= 0 {
		sizeCap = math.Inf(1)
	}
	hi := math.Min(knots[len(knots)-1].Size, sizeCap)
	for refEnvelopeTime(pl, knots, hi) <= T {
		if hi >= sizeCap {
			return sizeCap
		}
		hi = math.Min(2*hi, sizeCap)
	}
	lo := 0.0
	for i := 0; i < 100 && hi-lo > 1e-9*(1+hi); i++ {
		if mid := (lo + hi) / 2; refEnvelopeTime(pl, knots, mid) <= T {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func refFPM(t *testing.T, devices []partition.Device, n int) []int {
	t.Helper()
	knots := make([][]fpm.Point, len(devices))
	for i, d := range devices {
		knots[i] = d.Model.(*fpm.PiecewiseLinear).Points()
	}
	shares := make([]float64, len(devices))
	total := func(T float64) float64 {
		var s float64
		for i, d := range devices {
			shares[i] = refSizeFor(d.Model.(*fpm.PiecewiseLinear), knots[i], T, d.MaxUnits)
			s += shares[i]
		}
		return s
	}
	hi := 1e-6
	for total(hi) < float64(n) {
		hi *= 2
	}
	lo := 0.0
	for i := 0; i < 200 && hi-lo > 1e-9*(1+hi); i++ {
		if mid := (lo + hi) / 2; total(mid) < float64(n) {
			lo = mid
		} else {
			hi = mid
		}
	}
	total(hi)
	caps := make([]float64, len(devices))
	for i, d := range devices {
		caps[i] = math.Inf(1)
		if d.MaxUnits > 0 {
			caps[i] = d.MaxUnits
		}
	}
	units, err := partition.RoundShares(shares, n, caps)
	if err != nil {
		t.Fatal(err)
	}
	return units
}

func assertSameAsReference(t *testing.T, name string, devices []partition.Device, n int) {
	t.Helper()
	res, err := partition.FPM(devices, n, partition.FPMOptions{})
	if err != nil {
		t.Fatalf("%s n=%d: %v", name, n, err)
	}
	if got, want := res.Units(), refFPM(t, devices, n); !reflect.DeepEqual(got, want) {
		t.Errorf("%s n=%d: units %v, reference solver %v", name, n, got, want)
	}
}

func TestFPMMatchesReferenceSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// The fleets fpmd serves in the benchmark: 16-knot synthetic models with
	// a ramp, a plateau and an out-of-core decline, some of them capped.
	for _, p := range []int{2, 6, 24, 96} {
		devices := make([]partition.Device, p)
		for i := range devices {
			devices[i] = partition.Device{
				Name:  fmt.Sprintf("d%d", i),
				Model: service.SyntheticModel(16, 150+rng.Float64()*700),
			}
			if i%5 == 4 {
				devices[i].MaxUnits = 40 + rng.Float64()*160
			}
		}
		for rep := 0; rep < 6; rep++ {
			assertSameAsReference(t, fmt.Sprintf("synthetic×%d", p), devices, p*(20+rng.Intn(230)))
		}
	}
	// Hand-built fleets: three monotone-time models; a device whose speed
	// halves past 100 units beside a flat one; a fast device capped well
	// below its equal-time share.
	pl := func(pts ...fpm.Point) *fpm.PiecewiseLinear { return fpm.MustPiecewiseLinear(pts) }
	flat := func(speed float64) *fpm.PiecewiseLinear {
		return pl(fpm.Point{Size: 1, Speed: speed}, fpm.Point{Size: 10000, Speed: speed})
	}
	monotone := []partition.Device{
		{Name: "a", Model: pl(fpm.Point{Size: 10, Speed: 50}, fpm.Point{Size: 200, Speed: 150}, fpm.Point{Size: 2000, Speed: 160})},
		{Name: "b", Model: pl(fpm.Point{Size: 10, Speed: 20}, fpm.Point{Size: 500, Speed: 60}, fpm.Point{Size: 2000, Speed: 75})},
		{Name: "c", Model: flat(100)},
	}
	cliff := []partition.Device{
		{Name: "cliff", Model: pl(fpm.Point{Size: 1, Speed: 100}, fpm.Point{Size: 100, Speed: 100},
			fpm.Point{Size: 101, Speed: 50}, fpm.Point{Size: 10000, Speed: 50})},
		{Name: "flat", Model: flat(100)},
	}
	capped := []partition.Device{
		{Name: "gpu", Model: flat(1000), MaxUnits: 200},
		{Name: "cpu", Model: flat(10)},
	}
	for _, n := range []int{50, 777, 1000, 3000, 12345} {
		assertSameAsReference(t, "monotone", monotone, n)
		assertSameAsReference(t, "cliff", cliff, n)
		assertSameAsReference(t, "capped", capped, n)
	}
	// The paper's hybrid node as the experiment tests model it: V1 caps the
	// GPUs at their memory, V2/V3 models carry the out-of-core cliff.
	for _, v := range []gpukernel.Version{gpukernel.V1, gpukernel.V2, gpukernel.V3} {
		m, err := experiments.BuildModels(hw.NewIGNode(), experiments.ModelOptions{Version: v, Seed: 7, NoiseSigma: 0.005, Points: 10})
		if err != nil {
			t.Fatal(err)
		}
		for _, side := range []int{10, 20, 40, 60, 80} {
			assertSameAsReference(t, fmt.Sprintf("ig-node/v%d", v), m.Devices(), side*side)
		}
	}
}
