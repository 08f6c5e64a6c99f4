package main

import (
	"math"

	"fpmpart/internal/stats"
)

// quantile is the p-th quantile (0 <= p <= 1) of v, interpolated between
// order statistics as internal/stats does everywhere else in the repo.
func quantile(v []float64, p float64) float64 { return stats.NewSample(v...).Quantile(p) }

func median(v []float64) float64 { return quantile(v, 0.5) }

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.90, 0.80, 0.75}

// supportedTail returns the highest candidate percentile that still has at
// least ten samples beyond it, or 0 when the sample supports none.
func supportedTail(samples int) float64 {
	for _, p := range tailCandidates {
		// The epsilon keeps 0.8*50 at rank 40 where floating point says
		// 40.000000000000006.
		if samples-int(math.Ceil(p*float64(samples)-1e-9)) >= 10 {
			return p
		}
	}
	return 0
}

// sliceMedian applies f to each slice and returns the median of the
// results: one stall then moves one slice, not the reported number.
func sliceMedian(slices [][]float64, f func(slice []float64) float64) float64 {
	vals := make([]float64, len(slices))
	for i, s := range slices {
		vals[i] = f(s)
	}
	return median(vals)
}
