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
// had a closed form and before the equal-time solve closed its bracket by
// false position — an outer bisection on T from a bracket grown by doubling
// from 1e-6, with x_i(T) found by a numeric bisection on the envelope time
// evaluated from its definition. The production solver must hand
// RoundShares shares close enough to these that the integer partition is
// the same.

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

// refModel unwraps a piecewise-linear model, or a Scaled one over it, into
// the base model and the factor its time budget is multiplied by: a device
// Factor times faster finishes in T what the base finishes in T·Factor.
func refModel(t *testing.T, m fpm.SpeedFunction) (*fpm.PiecewiseLinear, float64) {
	t.Helper()
	switch m := m.(type) {
	case *fpm.PiecewiseLinear:
		return m, 1
	case fpm.Scaled:
		pl, f := refModel(t, m.Base)
		return pl, f * m.Factor
	}
	t.Fatalf("reference solver: unsupported model %T", m)
	return nil, 0
}

func refFPM(t *testing.T, devices []partition.Device, n int) []int {
	t.Helper()
	models := make([]*fpm.PiecewiseLinear, len(devices))
	factors := make([]float64, len(devices))
	knots := make([][]fpm.Point, len(devices))
	for i, d := range devices {
		models[i], factors[i] = refModel(t, d.Model)
		knots[i] = models[i].Points()
	}
	shares := make([]float64, len(devices))
	total := func(T float64) float64 {
		var s float64
		for i, d := range devices {
			shares[i] = refSizeFor(models[i], knots[i], T*factors[i], d.MaxUnits)
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

// assertSameAsReference checks FPM's units against the reference solver's
// and returns how many evaluations of total(T) the solve took.
func assertSameAsReference(t *testing.T, name string, devices []partition.Device, n int) int {
	t.Helper()
	res, err := partition.FPM(devices, n, partition.FPMOptions{})
	if err != nil {
		t.Fatalf("%s n=%d: %v", name, n, err)
	}
	if got, want := res.Units(), refFPM(t, devices, n); !reflect.DeepEqual(got, want) {
		t.Errorf("%s n=%d: units %v, reference solver %v", name, n, got, want)
	}
	return res.Iterations
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
			// These fleets' times are smooth enough for false position: a
			// bisection from the same bracket would take about 30.
			if evals := assertSameAsReference(t, fmt.Sprintf("synthetic×%d", p), devices, p*(20+rng.Intn(230))); evals > 16 {
				t.Errorf("synthetic×%d: %d evaluations of total(T), want at most 16", p, evals)
			}
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

// randomFleet draws a fleet the solver must handle like the reference: one
// to eight devices of one to twelve knots at random sizes and speeds, so
// their time functions rise, fall and jump; about a quarter capped and a
// quarter Scaled. n is drawn up to 5000 and kept within the caps.
func randomFleet(rng *rand.Rand) ([]partition.Device, int) {
	devices := make([]partition.Device, 1+rng.Intn(8))
	capSum, capped := 0.0, true
	for i := range devices {
		pts := make([]fpm.Point, 1+rng.Intn(12))
		size := 1 + 20*rng.Float64()
		for j := range pts {
			pts[j] = fpm.Point{Size: size, Speed: 10 + 990*rng.Float64()}
			size += 1 + 200*rng.Float64()
		}
		var m fpm.SpeedFunction = fpm.MustPiecewiseLinear(pts)
		if rng.Intn(4) == 0 {
			m = fpm.Scaled{Base: m, Factor: 0.25 + 1.75*rng.Float64()}
		}
		devices[i] = partition.Device{Name: fmt.Sprintf("d%d", i), Model: m}
		if rng.Intn(4) == 0 {
			devices[i].MaxUnits = math.Floor(20 + 500*rng.Float64())
			capSum += devices[i].MaxUnits
		} else {
			capped = false
		}
	}
	n := 1 + rng.Intn(5000)
	if capped && float64(n) > capSum {
		n = int(capSum)
	}
	return devices, n
}

// Random fleets jump wherever a model's time dips, and false position
// alone closes on a jump only linearly, in up to 105 evaluations on these
// fleets; the safeguarded solve stays within a bisection's count.
func TestFPMMatchesReferenceOnRandomFleets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1200; i++ {
		devices, n := randomFleet(rng)
		if evals := assertSameAsReference(t, fmt.Sprintf("random fleet %d", i), devices, n); evals > 40 {
			t.Errorf("random fleet %d: %d evaluations of total(T), want at most 40", i, evals)
		}
	}
}
