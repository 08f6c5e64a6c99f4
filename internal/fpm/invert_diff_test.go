package fpm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference the closed-form SizeFor is checked against: the numeric
// envelope inversion the solver used before — the envelope evaluated by
// definition (a scan over the knots below x) and inverted by bisection on x.
// pl supplies the knots of s (s is pl itself or a Scaled wrapper over it).

func refEnvelopeTime(s SpeedFunction, pl *PiecewiseLinear, x float64) float64 {
	t := Time(s, x)
	for _, p := range pl.points {
		if p.Size >= x {
			break
		}
		if tk := Time(s, p.Size); tk > t {
			t = tk
		}
	}
	return t
}

func refSizeFor(s SpeedFunction, pl *PiecewiseLinear, T, sizeCap float64) float64 {
	if sizeCap <= 0 {
		sizeCap = math.Inf(1)
	}
	if T <= 0 {
		return 0
	}
	_, hi := pl.Domain()
	hi = math.Min(hi, sizeCap)
	for refEnvelopeTime(s, pl, hi) <= T {
		if hi >= sizeCap {
			return sizeCap
		}
		hi = math.Min(2*hi, sizeCap)
	}
	lo := 0.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if refEnvelopeTime(s, pl, mid) <= T {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-12*(1+hi) {
			break
		}
	}
	return lo
}

type namedModel struct {
	name string
	pl   *PiecewiseLinear
}

// diffModels returns the hand-built shapes the closed form has a case for,
// plus seeded random models (random speeds give rising, falling and
// non-monotone time functions alike).
func diffModels(rng *rand.Rand) []namedModel {
	models := []namedModel{
		{"single-knot", MustPiecewiseLinear([]Point{{Size: 64, Speed: 120}})},
		// GPU out-of-core cliff (PAPER.md Fig. 3): t(x) jumps at 1000→1010
		// and then dips below the jump, so the envelope has a plateau.
		{"cliff", MustPiecewiseLinear([]Point{
			{Size: 100, Speed: 300}, {Size: 1000, Speed: 900}, {Size: 1010, Speed: 300},
			{Size: 1200, Speed: 700}, {Size: 4000, Speed: 650},
		})},
		// a = 0 on the middle segment: s = 2x there, so t is flat at 0.5.
		{"flat-time", MustPiecewiseLinear([]Point{
			{Size: 50, Speed: 150}, {Size: 100, Speed: 200}, {Size: 300, Speed: 600}, {Size: 900, Speed: 700},
		})},
		// a < 0 on the first segment: speed rises faster than size, so time
		// falls from 1 to 0.25 and the first knot dominates the envelope.
		{"super-linear", MustPiecewiseLinear([]Point{
			{Size: 10, Speed: 10}, {Size: 20, Speed: 80}, {Size: 200, Speed: 100}, {Size: 800, Speed: 90},
		})},
	}
	for _, knots := range []int{1, 2, 3, 5, 16} {
		for rep := 0; rep < 8; rep++ {
			pts := make([]Point, knots)
			x := 0.0
			for i := range pts {
				x += 1 + rng.Float64()*200
				pts[i] = Point{Size: x, Speed: 20 + rng.Float64()*380}
			}
			models = append(models, namedModel{fmt.Sprintf("random-%dknots-%d", knots, rep), MustPiecewiseLinear(pts)})
		}
	}
	return models
}

// diffDeadlines covers T below the first knot, above the last, random
// deadlines in between, and T exactly at the envelope time of every knot
// where the inverse is continuous. (At a knot that starts an envelope
// plateau the inverse jumps, so one ulp in T legitimately moves the answer
// across the plateau; TestInverterNonMonotoneTime pins that case on exactly
// representable numbers.)
func diffDeadlines(rng *rand.Rand, pl *PiecewiseLinear) []float64 {
	first, last := pl.env[0], pl.env[len(pl.env)-1]
	ds := []float64{first / 7, first * 0.999, last * 1.001, last * 5}
	for i := 0; i < 40; i++ {
		ds = append(ds, first/2*math.Pow(4*last/first, rng.Float64()))
	}
	for i, e := range pl.env {
		rises := i == 0 || e > pl.env[i-1]
		keepsRising := i == len(pl.env)-1 || pl.env[i+1] > e
		if rises && keepsRising {
			ds = append(ds, e)
		}
	}
	return ds
}

func TestSizeForMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	check := func(name string, s SpeedFunction, pl *PiecewiseLinear, T, sizeCap float64) {
		t.Helper()
		got, want := SizeFor(s, T, sizeCap), refSizeFor(s, pl, T, sizeCap)
		if math.IsNaN(got) || math.Abs(got-want) > 1e-8*(1+want) {
			t.Errorf("%s: SizeFor(T=%v, cap=%v) = %v, reference %v", name, T, sizeCap, got, want)
		}
	}
	for _, m := range diffModels(rng) {
		_, dmax := m.pl.Domain()
		for _, T := range diffDeadlines(rng, m.pl) {
			for _, sizeCap := range []float64{0, dmax * rng.Float64(), dmax * 3} {
				check(m.name, m.pl, m.pl, T, sizeCap)
				// A scaled model meets the same knots at T/Factor.
				for _, f := range []float64{0.85, 2.5} {
					check(fmt.Sprintf("%s×%v", m.name, f), Scaled{Base: m.pl, Factor: f}, m.pl, T/f, sizeCap)
				}
			}
		}
	}
	// A constant model is a one-knot piecewise-linear model.
	c, one := Constant{S: 37.5}, MustPiecewiseLinear([]Point{{Size: 1, Speed: 37.5}})
	for _, T := range []float64{1e-6, 0.3, 12, 4e5} {
		for _, sizeCap := range []float64{0, 1e4} {
			if got, want := SizeFor(c, T, sizeCap), refSizeFor(one, one, T, sizeCap); math.Abs(got-want) > 1e-8*(1+want) {
				t.Errorf("constant: SizeFor(T=%v, cap=%v) = %v, reference %v", T, sizeCap, got, want)
			}
			got, want := SizeFor(Scaled{Base: c, Factor: 0.5}, T, sizeCap), refSizeFor(Scaled{Base: one, Factor: 0.5}, one, T, sizeCap)
			if math.Abs(got-want) > 1e-8*(1+want) {
				t.Errorf("scaled constant: SizeFor(T=%v, cap=%v) = %v, reference %v", T, sizeCap, got, want)
			}
		}
	}
}

// A non-positive or NaN factor models a device that cannot make progress.
func TestSizeForDegenerateScale(t *testing.T) {
	pl := MustPiecewiseLinear([]Point{{Size: 10, Speed: 100}, {Size: 100, Speed: 50}})
	for _, f := range []float64{0, -1, math.NaN()} {
		if got := SizeFor(Scaled{Base: pl, Factor: f}, 3, 0); got != 0 {
			t.Errorf("factor %v: SizeFor = %v, want 0", f, got)
		}
	}
}

// FuzzSizeFor checks the closed form against the definition it implements,
// in time rather than in size so the verdict does not depend on how steep
// t(x) is where it meets T: the answer is feasible (its envelope time is
// within T) and maximal (a slightly larger size is not), within the cap.
func FuzzSizeFor(f *testing.F) {
	f.Add(10.0, 10.0, 20.0, 40.0, 40.0, 40.0, 0.9, 0.0, 1.0)          // envelope plateau
	f.Add(10.0, 10.0, 20.0, 40.0, 40.0, 40.0, 1.0, 0.0, 1.0)          // T exactly on it
	f.Add(100.0, 300.0, 1000.0, 900.0, 1010.0, 300.0, 2.0, 0.0, 0.85) // cliff, scaled
	f.Add(50.0, 100.0, 100.0, 200.0, 300.0, 600.0, 0.5, 0.0, 1.0)     // flat time
	f.Add(5.0, 50.0, 50.0, 120.0, 200.0, 60.0, 1.7, 64.0, 2.0)        // cap binds
	f.Fuzz(func(t *testing.T, x1, s1, x2, s2, x3, s3, T, sizeCap, factor float64) {
		sane := func(lo, hi float64, vs ...float64) bool {
			for _, v := range vs {
				if !(v >= lo && v <= hi) {
					return false
				}
			}
			return true
		}
		if !sane(1e-3, 1e9, x1, s1, x2, s2, x3, s3) || !sane(1e-9, 1e9, T) || !sane(0.01, 100, factor) || !sane(0, 1e12, sizeCap) {
			return
		}
		pl, err := NewPiecewiseLinear([]Point{{Size: x1, Speed: s1}, {Size: x2, Speed: s2}, {Size: x3, Speed: s3}})
		if err != nil {
			return
		}
		s := Scaled{Base: pl, Factor: factor}
		x := SizeFor(s, T, sizeCap)
		if math.IsNaN(x) || x < 0 || (sizeCap > 0 && x > sizeCap) {
			t.Fatalf("SizeFor = %v outside [0, cap=%v]", x, sizeCap)
		}
		if et := refEnvelopeTime(s, pl, x); et > T*(1+1e-9) {
			t.Fatalf("infeasible: envelope time %v at x=%v exceeds T=%v", et, x, T)
		}
		if sizeCap > 0 && x == sizeCap {
			return
		}
		if et := refEnvelopeTime(s, pl, x*(1+1e-9)+1e-12); et < T*(1-1e-9) {
			t.Fatalf("not maximal: envelope time %v just above x=%v is still below T=%v", et, x, T)
		}
	})
}
