package bench

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fpmpart/internal/fpm"
)

// Adaptive model construction: instead of a fixed grid, measurement points
// are placed where the piecewise-linear interpolation mispredicts — the
// strategy used by the paper's research software (fupermod) to spend the
// benchmarking budget on the interesting parts of the curve (ramps, cache
// cliffs, the GPU memory boundary) rather than on its flat plateaus.

// AdaptiveOptions configures BuildModelAdaptive.
type AdaptiveOptions struct {
	// Options configures the per-point repeat-until-reliable loop and the
	// worker pool measuring each refinement wave's midpoints.
	Options
	// MaxPoints bounds the number of measured sizes. Default 24.
	MaxPoints int
}

const (
	// adaptiveRelTol is the acceptable relative error of the interpolated
	// time at an interval's midpoint; intervals above it keep splitting.
	adaptiveRelTol = 0.05
	// adaptiveMinGapDiv stops splitting intervals narrower than the range
	// divided by it.
	adaptiveMinGapDiv = 1024
)

func (o AdaptiveOptions) withDefaults() (AdaptiveOptions, error) {
	opts, err := o.Options.withDefaults()
	if err != nil {
		return o, err
	}
	o.Options = opts
	if o.MaxPoints < 0 {
		return o, fmt.Errorf("bench: negative adaptive point budget %d", o.MaxPoints)
	}
	if o.MaxPoints > 0 && o.MaxPoints < 2 {
		// The range endpoints are always measured, so a budget of 1 would be
		// silently overspent before refinement even starts.
		return o, fmt.Errorf("bench: adaptive point budget %d below the 2 endpoint measurements", o.MaxPoints)
	}
	if o.MaxPoints == 0 {
		o.MaxPoints = 24
	}
	return o, nil
}

// BuildModelAdaptive benchmarks the kernel over [lo, hi], recursively
// splitting the interval whose midpoint time the current model mispredicts
// the most, until every interval interpolates within adaptiveRelTol or
// MaxPoints sizes have been measured.
//
// Refinement proceeds in waves: every interval of the current frontier has
// its midpoint measured concurrently on the options' worker pool, then the
// split decisions are applied in frontier order. Because split decisions
// depend only on measured values — which, for PointKernel kernels, depend
// only on the base seed and the point's size — the measured set and the
// resulting model are bit-identical at any worker count.
func BuildModelAdaptive(k Kernel, lo, hi float64, opts AdaptiveOptions) (*fpm.PiecewiseLinear, Report, error) {
	if k == nil {
		return nil, Report{}, errors.New("bench: nil kernel")
	}
	if lo <= 0 || hi <= lo {
		return nil, Report{}, fmt.Errorf("bench: invalid adaptive range [%v, %v]", lo, hi)
	}
	if max := k.MaxSize(); max > 0 && hi > max {
		hi = max
		if hi <= lo {
			return nil, Report{}, fmt.Errorf("bench: range below %s's limit %v", k.Name(), max)
		}
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, Report{}, err
	}

	rep := Report{Kernel: k.Name()}
	measured := map[float64]float64{} // size -> mean time
	minGap := (hi - lo) / adaptiveMinGapDiv

	// measureWave measures the given sizes and records their mean times.
	measureWave := func(xs []float64) error {
		means, err := rep.measure(k, xs, opts.Options)
		if err != nil {
			return err
		}
		for i, x := range xs {
			measured[x] = means[i]
		}
		return nil
	}

	if err := measureWave([]float64{lo, hi}); err != nil {
		return nil, rep, err
	}

	type interval struct{ a, b float64 }
	frontier := []interval{{lo, hi}}
	for len(frontier) > 0 && len(measured) < opts.MaxPoints {
		// Collect this wave's midpoints in frontier order, within budget.
		wave := make([]interval, 0, len(frontier))
		mids := make([]float64, 0, len(frontier))
		for _, iv := range frontier {
			if len(measured)+len(mids) >= opts.MaxPoints {
				break
			}
			if iv.b-iv.a <= minGap {
				continue
			}
			wave = append(wave, iv)
			mids = append(mids, (iv.a+iv.b)/2)
		}
		if len(mids) == 0 {
			break
		}
		if err := measureWave(mids); err != nil {
			return nil, rep, err
		}
		var next []interval
		for i, iv := range wave {
			mid := mids[i]
			ta, tb := measured[iv.a], measured[iv.b]
			// The model interpolates *speed* linearly; predict the midpoint
			// time accordingly.
			sa, sb := iv.a/ta, iv.b/tb
			predicted := mid / ((sa + sb) / 2)
			actual := measured[mid]
			if math.Abs(predicted-actual)/actual > adaptiveRelTol {
				next = append(next, interval{iv.a, mid}, interval{mid, iv.b})
			}
		}
		frontier = next
	}

	samples := make([]fpm.TimeSample, 0, len(measured))
	for x, t := range measured {
		samples = append(samples, fpm.TimeSample{Size: x, Seconds: t})
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].Size < samples[j].Size })
	model, err := fpm.FromTimings(samples)
	if err != nil {
		return nil, rep, err
	}
	return model, rep, nil
}
