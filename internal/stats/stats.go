// Package stats provides the statistical machinery used when building
// functional performance models: descriptive statistics, Student's
// t-distribution, confidence intervals, and an adaptive estimator that
// repeats a measurement until it is statistically reliable.
//
// The CLUSTER 2012 paper requires that "experiments are repeated multiple
// times until the results are statistically reliable"; this package is the
// concrete realisation of that requirement.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations of a scalar quantity (e.g. execution time
// of one kernel run) and offers descriptive statistics over them.
//
// The zero value is an empty, ready-to-use sample.
type Sample struct {
	xs []float64
}

// NewSample returns a sample pre-filled with the given observations.
func NewSample(xs ...float64) *Sample {
	s := &Sample{}
	s.Add(xs...)
	return s
}

// Add appends observations to the sample.
func (s *Sample) Add(xs ...float64) {
	s.xs = append(s.xs, xs...)
}

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns a copy of the observations in insertion order.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	// Kahan summation: kernel times can span several orders of magnitude
	// within one model-building session.
	var sum, c float64
	for _, x := range s.xs {
		y := x - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum / float64(len(s.xs))
}

// Variance returns the unbiased sample variance (n-1 denominator), or NaN
// when fewer than two observations are present.
func (s *Sample) Variance() float64 {
	n := len(s.xs)
	if n < 2 {
		return math.NaN()
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if len(s.xs) < 2 {
		return math.NaN()
	}
	return s.StdDev() / math.Sqrt(float64(len(s.xs)))
}

// Min returns the smallest observation, or NaN for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation, or NaN for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between order statistics (type-7, the R default).
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.xs)
	if n == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	sorted := s.Values()
	sort.Float64s(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return sorted[lo]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// CI is a two-sided confidence interval around a sample mean.
type CI struct {
	Mean       float64 // point estimate
	HalfWidth  float64 // half-width of the interval
	Confidence float64 // confidence level, e.g. 0.95
	N          int     // observations the interval is based on
}

// RelativeError reports the half-width as a fraction of the mean. It is the
// quantity the adaptive estimator drives below a target threshold.
func (ci CI) RelativeError() float64 {
	if ci.Mean == 0 {
		return math.Inf(1)
	}
	return math.Abs(ci.HalfWidth / ci.Mean)
}

func (ci CI) String() string {
	return fmt.Sprintf("%.6g ± %.3g (%.0f%%, n=%d)", ci.Mean, ci.HalfWidth, ci.Confidence*100, ci.N)
}

// MeanCI returns the Student-t confidence interval for the sample mean at the
// given confidence level (e.g. 0.95). It returns an error when fewer than two
// observations are available or the level is out of range.
func (s *Sample) MeanCI(confidence float64) (CI, error) {
	if s.N() < 2 {
		return CI{}, errors.New("stats: confidence interval needs at least 2 observations")
	}
	if confidence <= 0 || confidence >= 1 {
		return CI{}, fmt.Errorf("stats: confidence level %v out of (0,1)", confidence)
	}
	df := float64(s.N() - 1)
	t := TInv(1-(1-confidence)/2, df)
	return CI{
		Mean:       s.Mean(),
		HalfWidth:  t * s.StdErr(),
		Confidence: confidence,
		N:          s.N(),
	}, nil
}
