package fpm

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// TimeSample is one reliable timing of the application kernel: running a
// problem of Size units took Seconds.
type TimeSample struct {
	Size    float64
	Seconds float64
}

// FromTimings converts reliable kernel timings into a piecewise-linear FPM:
// speed(x) = x / t(x) at each measured size.
func FromTimings(samples []TimeSample) (*PiecewiseLinear, error) {
	if len(samples) == 0 {
		return nil, errors.New("fpm: no timing samples")
	}
	pts := make([]Point, 0, len(samples))
	for _, s := range samples {
		if s.Size <= 0 || s.Seconds <= 0 || math.IsNaN(s.Seconds) || math.IsInf(s.Seconds, 0) {
			return nil, fmt.Errorf("fpm: invalid timing sample {size %v, %vs}", s.Size, s.Seconds)
		}
		pts = append(pts, Point{Size: s.Size, Speed: s.Size / s.Seconds})
	}
	return NewPiecewiseLinear(pts)
}

// Grid returns n problem sizes spanning [lo, hi]. Spacing "linear" places
// them uniformly; "geometric" spaces them multiplicatively, which samples
// the small-size ramp of a speed function more densely — the standard
// practice when building FPMs.
func Grid(lo, hi float64, n int, spacing string) ([]float64, error) {
	if n < 1 || lo <= 0 || hi < lo {
		return nil, fmt.Errorf("fpm: invalid grid [%v,%v] n=%d", lo, hi, n)
	}
	if n == 1 {
		return []float64{lo}, nil
	}
	out := make([]float64, n)
	switch spacing {
	case "linear", "":
		step := (hi - lo) / float64(n-1)
		for i := range out {
			out[i] = lo + float64(i)*step
		}
	case "geometric":
		r := math.Pow(hi/lo, 1/float64(n-1))
		x := lo
		for i := range out {
			out[i] = x
			x *= r
		}
		out[n-1] = hi
	default:
		return nil, fmt.Errorf("fpm: unknown grid spacing %q", spacing)
	}
	return out, nil
}

// Accuracy compares a model against reference timings and returns the mean
// and maximum relative error of the predicted times. The paper quantifies
// model quality this way ("... can approximate the speed of the GPU in the
// case of resource contention with 85% accuracy").
func Accuracy(s SpeedFunction, ref []TimeSample) (meanRelErr, maxRelErr float64, err error) {
	if len(ref) == 0 {
		return 0, 0, errors.New("fpm: no reference samples")
	}
	var sum float64
	for _, r := range ref {
		if r.Seconds <= 0 {
			return 0, 0, fmt.Errorf("fpm: invalid reference time %v", r.Seconds)
		}
		pred := Time(s, r.Size)
		rel := math.Abs(pred-r.Seconds) / r.Seconds
		sum += rel
		if rel > maxRelErr {
			maxRelErr = rel
		}
	}
	return sum / float64(len(ref)), maxRelErr, nil
}

// MergeEps combines several models of the same device (an online-refined
// partial model over its base, say) into one by pooling their points:
// points whose sizes lie within eps (relative to the smallest size of their
// cluster) collapse to one knot, the later-listed model's point winning.
// Near-equal sizes are re-measurements of the same knot, not distinct
// observations: keeping both accumulates knots without bound under repeated
// refine→merge cycles, and a noise-sized speed difference across a
// noise-sized size gap manufactures a violent local time inversion. Clusters
// are anchored at their smallest member, so the merged knot count is bounded
// by the geometric eps-net over the size range no matter how many times
// models are re-merged. eps must be in [0, 1); 0 dedupes exact duplicates
// only.
func MergeEps(eps float64, models ...*PiecewiseLinear) (*PiecewiseLinear, error) {
	if math.IsNaN(eps) || eps < 0 || eps >= 1 {
		return nil, fmt.Errorf("fpm: merge epsilon %v out of [0,1)", eps)
	}
	if len(models) == 0 {
		return nil, errors.New("fpm: nothing to merge")
	}
	type cand struct {
		p          Point
		model, idx int
	}
	var all []cand
	for mi, m := range models {
		if m == nil {
			return nil, errors.New("fpm: nil model in merge")
		}
		for pi, p := range m.points {
			all = append(all, cand{p: p, model: mi, idx: pi})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].p.Size != all[j].p.Size {
			return all[i].p.Size < all[j].p.Size
		}
		if all[i].model != all[j].model {
			return all[i].model < all[j].model
		}
		return all[i].idx < all[j].idx
	})
	var pts []Point
	for i := 0; i < len(all); {
		anchor := all[i].p.Size
		win := all[i]
		j := i + 1
		for j < len(all) && all[j].p.Size <= anchor*(1+eps) {
			// Later-listed model wins; within one model the larger size wins
			// (deterministic, and NewPiecewiseLinear forbids within-model
			// duplicates anyway).
			if all[j].model > win.model || (all[j].model == win.model && all[j].idx > win.idx) {
				win = all[j]
			}
			j++
		}
		// Winner sizes are strictly increasing across clusters: a cluster's
		// winner is <= anchor*(1+eps), and the next cluster's anchor exceeds
		// that — so the merged points never trip the duplicate-size check.
		pts = append(pts, win.p)
		i = j
	}
	return NewPiecewiseLinear(pts)
}
