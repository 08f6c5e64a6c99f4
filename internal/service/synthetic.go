package service

import "fpmpart/internal/fpm"

// SyntheticModel builds a dense piecewise-linear FPM with the paper's
// characteristic shape — speed rising to a plateau, then degrading past the
// in-core limit — with `knots` observation points. Tests and the benchmark
// harness register it as a stand-in for a measured device model.
func SyntheticModel(knots int, peak float64) *fpm.PiecewiseLinear {
	if knots < 2 {
		knots = 2
	}
	pts := make([]fpm.Point, knots)
	for i := range pts {
		x := 16 * float64(i+1)
		f := float64(i) / float64(knots-1)
		var speed float64
		switch {
		case f < 0.3: // warm-up ramp
			speed = peak * (0.4 + 2*f)
		case f < 0.75: // plateau
			speed = peak
		default: // out-of-core degradation
			speed = peak * (1 - 0.6*(f-0.75)/0.25)
		}
		pts[i] = fpm.Point{Size: x, Speed: speed}
	}
	return fpm.MustPiecewiseLinear(pts)
}
