package stats

import (
	"math"
	"sort"
)

// Outlier rejection for benchmark samples: timing distributions on real
// systems have a one-sided tail (daemons, interrupts, page faults), so
// robust filtering before averaging noticeably improves model quality.

// MAD returns the median absolute deviation of the sample (a robust spread
// estimate), or NaN for an empty sample.
func (s *Sample) MAD() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	med := s.Median()
	devs := make([]float64, len(s.xs))
	for i, x := range s.xs {
		devs[i] = math.Abs(x - med)
	}
	sort.Float64s(devs)
	n := len(devs)
	if n%2 == 1 {
		return devs[n/2]
	}
	return (devs[n/2-1] + devs[n/2]) / 2
}

// MeanAbsDev returns the mean absolute deviation about the median, or NaN
// for an empty sample. Unlike the MAD it is non-zero whenever any
// observation differs from the median, which makes it the robust-scale
// fallback for degenerate samples where the MAD collapses to zero.
func (s *Sample) MeanAbsDev() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	med := s.Median()
	var sum float64
	for _, x := range s.xs {
		sum += math.Abs(x - med)
	}
	return sum / float64(len(s.xs))
}

// FilterOutliers returns a new sample containing the observations within k
// scaled MADs of the median (k≈3 is conventional; the 1.4826 factor makes
// the MAD consistent with a normal standard deviation).
//
// When more than half the observations are identical the MAD is zero and a
// k·MAD window would reject every non-identical observation — exactly what
// happens to observe batches from a quantized clock, where most timings land
// on one tick and the rest one tick over. The filter then falls back to the
// mean absolute deviation (scaled by 1.2533 for normal consistency), which
// keeps same-tick-neighbour observations while still rejecting genuinely
// distant ones. A fully degenerate sample (every value identical) passes
// through unchanged.
func (s *Sample) FilterOutliers(k float64) *Sample {
	if len(s.xs) == 0 || k <= 0 {
		return NewSample(s.xs...)
	}
	med := s.Median()
	scale := 1.4826 * s.MAD()
	if scale == 0 {
		scale = 1.2533 * s.MeanAbsDev()
	}
	if scale == 0 {
		// Every observation equals the median: nothing to reject.
		return NewSample(s.xs...)
	}
	out := &Sample{}
	for _, x := range s.xs {
		if math.Abs(x-med) <= k*scale {
			out.Add(x)
		}
	}
	if out.N() == 0 {
		// Never return an empty sample: keep the median itself.
		out.Add(med)
	}
	return out
}
