package telemetry

import "math"

// Quantile estimates the q-quantile (0 < q <= 1) of the observed values by
// linear interpolation within the bucket containing the target rank —
// the same estimate Prometheus's histogram_quantile computes server-side.
// It returns NaN when the histogram is empty or q is out of range. The
// estimate's resolution is the bucket width, so histograms whose quantiles
// are read should use fine exponential buckets.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || math.IsNaN(q) || q <= 0 || q > 1 {
		return math.NaN()
	}
	total := float64(h.count.Load())
	if total == 0 {
		return math.NaN()
	}
	target := q * total
	var cum float64
	lower := 0.0
	for i, b := range h.bounds {
		c := float64(h.counts[i].Load())
		if c > 0 && cum+c >= target {
			lo := lower
			if b < lo {
				// Negative-bound buckets: no meaningful lower edge.
				lo = b
			}
			return lo + (b-lo)*(target-cum)/c
		}
		cum += c
		lower = b
	}
	// Rank falls in the implicit +Inf bucket: the best defensible answer is
	// the largest finite bound (Prometheus does the same).
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return math.NaN()
}
