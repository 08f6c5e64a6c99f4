package stats

import (
	"errors"
	"fmt"
)

// Estimator drives the repeat-until-reliable measurement loop used when
// benchmarking a computational kernel: observations are added one at a time
// and Reliable reports whether the mean is known to the requested relative
// precision at the requested confidence level.
type Estimator struct {
	// Confidence is the two-sided confidence level, e.g. 0.95.
	Confidence float64
	// RelErr is the target relative half-width of the confidence interval,
	// e.g. 0.025 for ±2.5%.
	RelErr float64
	// MinReps and MaxReps bound the number of repetitions. MaxReps <= 0
	// means unbounded.
	MinReps, MaxReps int
	// Robust applies 3-MAD outlier filtering before computing the mean and
	// its confidence interval — recommended for wall-clock measurements,
	// whose distributions have a one-sided system-noise tail.
	Robust bool

	sample Sample
}

// NewEstimator returns an estimator with the given confidence level and
// relative-error target, requiring at least minReps and at most maxReps
// observations.
func NewEstimator(confidence, relErr float64, minReps, maxReps int) *Estimator {
	if minReps < 2 {
		minReps = 2
	}
	return &Estimator{Confidence: confidence, RelErr: relErr, MinReps: minReps, MaxReps: maxReps}
}

// Add records one observation.
func (e *Estimator) Add(x float64) { e.sample.Add(x) }

// N reports how many observations have been recorded.
func (e *Estimator) N() int { return e.sample.N() }

// Mean returns the current point estimate (outlier-filtered when Robust).
func (e *Estimator) Mean() float64 { return e.effective().Mean() }

// effective returns the sample used for estimation.
func (e *Estimator) effective() *Sample {
	if e.Robust {
		return e.sample.FilterOutliers(3)
	}
	return &e.sample
}

// Sample exposes the underlying sample (read-only use intended).
func (e *Estimator) Sample() *Sample { return &e.sample }

// Reliable reports whether measurement can stop: either the confidence
// interval is tight enough, or the repetition budget is exhausted.
func (e *Estimator) Reliable() bool {
	n := e.sample.N()
	if n < e.MinReps {
		return false
	}
	if e.MaxReps > 0 && n >= e.MaxReps {
		return true
	}
	ci, err := e.effective().MeanCI(e.Confidence)
	if err != nil {
		return false
	}
	return ci.RelativeError() <= e.RelErr
}

// Converged reports whether the precision target itself was met (as opposed
// to stopping because MaxReps was reached).
func (e *Estimator) Converged() bool {
	if e.sample.N() < e.MinReps {
		return false
	}
	ci, err := e.effective().MeanCI(e.Confidence)
	if err != nil {
		return false
	}
	return ci.RelativeError() <= e.RelErr
}

// Measure repeatedly calls run, feeding its result into the estimator until
// Reliable reports true, and returns the final mean. It returns an error if
// run returns one or if the configuration cannot converge (MaxReps <= 0 and
// the interval never tightens is the caller's risk; a zero/negative
// observation is rejected because kernel times must be positive).
func (e *Estimator) Measure(run func() (float64, error)) (float64, error) {
	if run == nil {
		return 0, errors.New("stats: Measure requires a run function")
	}
	for !e.Reliable() {
		x, err := run()
		if err != nil {
			return 0, err
		}
		if x <= 0 {
			return 0, fmt.Errorf("stats: non-positive observation %v", x)
		}
		e.Add(x)
	}
	return e.Mean(), nil
}
