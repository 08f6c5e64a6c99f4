package stats

import (
	"errors"
	"math"
	"testing"
)

func TestEstimatorStopsImmediatelyOnConstantData(t *testing.T) {
	e := NewEstimator(0.95, 0.05, 3, 100)
	calls := 0
	mean, err := e.Measure(func() (float64, error) {
		calls++
		return 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if mean != 10 {
		t.Errorf("mean = %v, want 10", mean)
	}
	if calls != 3 {
		t.Errorf("constant data should stop at MinReps=3, took %d", calls)
	}
	if !e.Converged() {
		t.Error("estimator should report convergence")
	}
}

func TestEstimatorRespectsMaxReps(t *testing.T) {
	e := NewEstimator(0.95, 1e-9, 2, 7) // precision unreachable with noisy data
	n := NewNoise(1, 0.2)
	calls := 0
	_, err := e.Measure(func() (float64, error) {
		calls++
		return n.Perturb(5), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 7 {
		t.Errorf("should stop at MaxReps=7, took %d", calls)
	}
	if e.Converged() {
		t.Error("should not claim convergence when budget-limited")
	}
}

func TestEstimatorConvergesOnNoisyData(t *testing.T) {
	e := NewEstimator(0.95, 0.02, 5, 10000)
	n := NewNoise(42, 0.05)
	mean, err := e.Measure(func() (float64, error) { return n.Perturb(3.0), nil })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-3.0) > 0.1 {
		t.Errorf("converged mean %v too far from true 3.0", mean)
	}
	if !e.Converged() {
		t.Error("should have converged")
	}
	ci, err := e.Sample().MeanCI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci.RelativeError() > 0.02 {
		t.Errorf("final relative error %v > target 0.02", ci.RelativeError())
	}
}

func TestEstimatorPropagatesRunErrors(t *testing.T) {
	e := NewEstimator(0.95, 0.05, 2, 10)
	sentinel := errors.New("kernel failed")
	if _, err := e.Measure(func() (float64, error) { return 0, sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("error not propagated, got %v", err)
	}
}

func TestEstimatorRejectsNonPositiveObservations(t *testing.T) {
	e := NewEstimator(0.95, 0.05, 2, 10)
	if _, err := e.Measure(func() (float64, error) { return -1, nil }); err == nil {
		t.Error("negative observation must be rejected")
	}
	if _, err := NewEstimator(0.95, 0.05, 2, 10).Measure(nil); err == nil {
		t.Error("nil run function must be rejected")
	}
}

func TestEstimatorMinRepsFloor(t *testing.T) {
	e := NewEstimator(0.95, 0.05, 0, 10)
	if e.MinReps != 2 {
		t.Errorf("MinReps floor = %d, want 2", e.MinReps)
	}
}

func TestNoiseProperties(t *testing.T) {
	n := NewNoise(7, 0.02)
	s := &Sample{}
	for i := 0; i < 2000; i++ {
		v := n.Perturb(100)
		if v <= 0 {
			t.Fatalf("noise produced non-positive time %v", v)
		}
		// Clipped at 3 sigma: |v-100| <= 6.
		if math.Abs(v-100) > 6.0001 {
			t.Fatalf("noise exceeded clip: %v", v)
		}
		s.Add(v)
	}
	if math.Abs(s.Mean()-100) > 0.5 {
		t.Errorf("noise is biased: mean %v", s.Mean())
	}
	// Reproducibility with same seed.
	a, b := NewNoise(9, 0.05), NewNoise(9, 0.05)
	for i := 0; i < 10; i++ {
		if a.Perturb(1) != b.Perturb(1) {
			t.Fatal("same-seed noise sources diverged")
		}
	}
	// nil and zero-sigma noise are identity.
	var nilNoise *Noise
	if nilNoise.Perturb(5) != 5 {
		t.Error("nil noise should be identity")
	}
	if NewNoise(1, 0).Perturb(5) != 5 {
		t.Error("zero-sigma noise should be identity")
	}
}

func TestEstimatorRobustIgnoresOutliers(t *testing.T) {
	// Clean repetitions plus one wild outlier: a robust estimator converges
	// to the clean mean; a plain one is dragged.
	feed := func(e *Estimator) {
		for _, x := range []float64{10, 10.02, 9.98, 10.01, 9.99, 80} {
			e.Add(x)
		}
	}
	plain := NewEstimator(0.95, 0.02, 3, 0)
	feed(plain)
	robust := NewEstimator(0.95, 0.02, 3, 0)
	robust.Robust = true
	feed(robust)
	if m := robust.Mean(); math.Abs(m-10) > 0.05 {
		t.Errorf("robust mean = %v, want ≈10", m)
	}
	if m := plain.Mean(); m < 15 {
		t.Errorf("plain mean should include the outlier: %v", m)
	}
	// The robust estimator's interval is tight despite the outlier.
	if !robust.Converged() {
		t.Error("robust estimator should converge")
	}
	if plain.Converged() {
		t.Error("plain estimator should not converge with the outlier")
	}
}
