package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.N() != 0 {
		t.Fatalf("N of empty sample = %d", s.N())
	}
	for name, v := range map[string]float64{
		"mean": s.Mean(), "var": s.Variance(), "stderr": s.StdErr(),
		"min": s.Min(), "max": s.Max(), "median": s.Median(),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s of empty sample = %v, want NaN", name, v)
		}
	}
}

func TestSampleBasics(t *testing.T) {
	s := NewSample(2, 4, 4, 4, 5, 5, 7, 9)
	approx(t, s.Mean(), 5, 1e-12, "mean")
	// Known population: sum of squared deviations = 32, n-1 = 7.
	approx(t, s.Variance(), 32.0/7, 1e-12, "variance")
	approx(t, s.StdDev(), math.Sqrt(32.0/7), 1e-12, "stddev")
	approx(t, s.Min(), 2, 0, "min")
	approx(t, s.Max(), 9, 0, "max")
	approx(t, s.Median(), 4.5, 1e-12, "median")
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
}

func TestSampleSingleObservation(t *testing.T) {
	s := NewSample(3.5)
	approx(t, s.Mean(), 3.5, 0, "mean")
	if !math.IsNaN(s.Variance()) {
		t.Errorf("variance of single observation should be NaN, got %v", s.Variance())
	}
	approx(t, s.Quantile(0), 3.5, 0, "q0")
	approx(t, s.Quantile(1), 3.5, 0, "q1")
}

func TestQuantileInterpolation(t *testing.T) {
	s := NewSample(1, 2, 3, 4)
	approx(t, s.Quantile(0), 1, 0, "q0")
	approx(t, s.Quantile(1), 4, 0, "q1")
	approx(t, s.Quantile(0.5), 2.5, 1e-12, "q0.5")
	approx(t, s.Quantile(1.0/3), 2, 1e-12, "q1/3")
	if !math.IsNaN(s.Quantile(-0.1)) || !math.IsNaN(s.Quantile(1.1)) {
		t.Error("out-of-range quantiles should be NaN")
	}
}

func TestValuesIsACopy(t *testing.T) {
	s := NewSample(1, 2, 3)
	v := s.Values()
	v[0] = 100
	if s.Min() != 1 {
		t.Error("Values() must return a copy, mutation leaked into sample")
	}
}

func TestMeanCIKnownCase(t *testing.T) {
	// n=10, mean=10, sd=2: t_{0.975,9} = 2.2621571628, hw = t*2/sqrt(10).
	xs := []float64{8, 9, 9.5, 10, 10, 10, 10.5, 11, 11, 11}
	s := NewSample(xs...)
	ci, err := s.MeanCI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	wantHW := TInv(0.975, 9) * s.StdErr()
	approx(t, ci.HalfWidth, wantHW, 1e-9, "halfwidth")
	if ci.N != 10 {
		t.Errorf("N = %d", ci.N)
	}
}

func TestMeanCIErrors(t *testing.T) {
	s := NewSample(1)
	if _, err := s.MeanCI(0.95); err == nil {
		t.Error("expected error with 1 observation")
	}
	s.Add(2)
	for _, lvl := range []float64{0, 1, -0.5, 1.5} {
		if _, err := s.MeanCI(lvl); err == nil {
			t.Errorf("expected error for confidence %v", lvl)
		}
	}
}

func TestCIRelativeError(t *testing.T) {
	ci := CI{Mean: 100, HalfWidth: 2.5}
	approx(t, ci.RelativeError(), 0.025, 1e-12, "relerr")
	ci = CI{Mean: 0, HalfWidth: 1}
	if !math.IsInf(ci.RelativeError(), 1) {
		t.Error("relative error with zero mean should be +Inf")
	}
}

// Property: mean is translation-equivariant and variance is
// translation-invariant.
func TestSampleTranslationProperty(t *testing.T) {
	f := func(raw []float64, shift float64) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true
			}
			xs = append(xs, x)
		}
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		a := NewSample(xs...)
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		b := NewSample(shifted...)
		scale := 1 + math.Abs(a.Mean()) + math.Abs(shift)
		if math.Abs(b.Mean()-(a.Mean()+shift)) > 1e-8*scale {
			return false
		}
		vscale := 1 + a.Variance()
		return math.Abs(b.Variance()-a.Variance()) <= 1e-6*vscale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: min <= median <= max and min <= mean <= max.
func TestSampleOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true
			}
		}
		s := NewSample(raw...)
		lo, hi := s.Min(), s.Max()
		return s.Median() >= lo && s.Median() <= hi && s.Mean() >= lo-1e-9*(1+math.Abs(lo)) && s.Mean() <= hi+1e-9*(1+math.Abs(hi))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
