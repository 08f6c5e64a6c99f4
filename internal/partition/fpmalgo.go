package partition

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"fpmpart/internal/fpm"
	"fpmpart/internal/telemetry"
)

// FPMOptions is empty: the solver has no knobs. The type and FPM's third
// parameter remain only because benchmark/ calls FPM(devices, n, FPMOptions{}).
type FPMOptions struct{}

const (
	// fpmTolerance is the relative width of the bracket on the common
	// completion time at which the solve stops and returns its upper end.
	fpmTolerance = 1e-9
	// itpSlack is how many evaluations more than a bisection the closing
	// steps may take.
	itpSlack = 2
	// itpTruncation sets how far a step moves from the false-position
	// point toward the midpoint: itpTruncation·w²/w₀ for a bracket of width
	// w that started at w₀. Smaller values trust false position longer.
	itpTruncation = 0.05
)

// FPM runs the FPM-based data partitioning algorithm: it finds the common
// completion time T* such that the devices, each loaded with the most work
// it can finish within T*, together absorb exactly n units, then assigns
// x_i = x_i(T*) rounded to integers.
//
// T* is the root of total(T) − n, where total(T) = Σ_i x_i(T) is monotone
// non-decreasing and x_i(T) inverts the monotone envelope of the device's
// execution-time function (see fpm.SizeFor). This is equivalent to the
// geometric line-rotation formulation of Lastovetsky & Reddy 2007: a line
// through the origin with slope n/T intersects the speed functions at the
// balanced distribution. See equalTime for how the root is found.
func FPM(devices []Device, n int, _ FPMOptions) (Result, error) {
	return FPMContext(context.Background(), devices, n, FPMOptions{})
}

// FPMContext is FPM with cooperative cancellation: the solve checks ctx
// before every evaluation of total(T) and returns ctx.Err() (wrapped) once
// the context is cancelled or its deadline passes. fpmd uses this to
// propagate per-request deadlines into the solver so abandoned requests stop
// consuming CPU.
func FPMContext(ctx context.Context, devices []Device, n int, _ FPMOptions) (Result, error) {
	if err := validate(devices, n); err != nil {
		return Result{}, err
	}
	// When ctx carries a request trace, the whole solve is one "equal-time"
	// stage and the evaluation count lands on the trace, so the flight
	// recorder shows how much of a served request was solver time.
	defer telemetry.Stage(ctx, "equal-time")()
	if n == 0 {
		return finish(devices, make([]int, len(devices))), nil
	}

	e := equalTime{devices: devices, target: float64(n)}
	T, err := e.solve(ctx)
	if err != nil {
		return Result{}, err
	}
	shares := make([]float64, len(devices))
	var sum float64
	for i, d := range devices {
		shares[i] = fpm.SizeFor(d.Model, T, d.MaxUnits)
		sum += shares[i]
	}
	// The continuous shares at T sum to >= n. No scaling happens here: the
	// sum is only an emptiness check, and RoundShares normalizes the shares
	// to total exactly n (proportional scaling + largest-remainder
	// rounding), so overshoot affects the split only through the devices'
	// relative shares at T.
	if sum <= 0 {
		return Result{}, fmt.Errorf("partition: FPM produced empty distribution for n=%d", n)
	}
	units, err := RoundShares(shares, n, caps(devices))
	if err != nil {
		return Result{}, err
	}
	res := finish(devices, units)
	res.Iterations = e.evals
	telemetry.AnnotateTrace(ctx, "solve_iterations", strconv.Itoa(e.evals))
	recordResult(res)
	return res, nil
}

// equalTime finds T* for one solve. Each evaluation of total(T) runs
// fpm.SizeFor on every device, which is exact and allocation-free for the
// piecewise-linear models the service and the experiments use, so the cost
// of a solve is its number of evaluations.
//
// The solve brackets T* from the even-split estimate, widening the bracket
// geometrically, then closes it by ITP (Oliveira & Takahashi 2020), a
// safeguarded false position. total(T) is piecewise smooth, with a kink
// where a device crosses a knot, so false position converges fast; but it
// jumps where a device's envelope has a plateau, and there plain false
// position closes only from one side, linearly. ITP keeps each step near
// the false-position point while that converges, and moves it toward the
// midpoint when it does not, so the closing steps never number more than a
// bisection's plus itpSlack.
type equalTime struct {
	devices []Device
	target  float64
	evals   int
}

// excess evaluates total(T) − n.
func (e *equalTime) excess(T float64) float64 {
	e.evals++
	var s float64
	for i := range e.devices {
		d := &e.devices[i]
		s += fpm.SizeFor(d.Model, T, d.MaxUnits)
	}
	return s - e.target
}

// estimate is the even-split estimate of T*: the time the devices would
// take if each ran n/p units at its speed there. Models promise a positive,
// finite speed; anything else falls back to T = 1.
func (e *equalTime) estimate() float64 {
	x := e.target / float64(len(e.devices))
	var speed float64
	for _, d := range e.devices {
		speed += d.Model.Speed(x)
	}
	if T := e.target / speed; T > 0 && !math.IsInf(T, 1) {
		return T
	}
	return 1
}

// solve returns the upper end of a bracket [lo, hi] on T* with
// total(lo) < n <= total(hi) and hi − lo <= fpmTolerance·(1+hi), or a time
// with total(T) == n exactly.
func (e *equalTime) solve(ctx context.Context) (float64, error) {
	abandoned := func(err error) error {
		return fmt.Errorf("partition: FPM solve abandoned: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return 0, abandoned(err)
	}
	// Bracket: glo < 0 <= ghi. total(0) = 0 < n, so halving always ends.
	hi := e.estimate()
	ghi := e.excess(hi)
	lo, glo := hi, ghi
	if ghi >= 0 {
		for glo >= 0 {
			if err := ctx.Err(); err != nil {
				return 0, abandoned(err)
			}
			hi, ghi = lo, glo
			lo /= 2
			glo = e.excess(lo)
		}
	} else {
		for ghi < 0 {
			if err := ctx.Err(); err != nil {
				return 0, abandoned(err)
			}
			lo, glo = hi, ghi
			if hi *= 2; hi > 1e18 {
				return 0, fmt.Errorf("partition: FPM solve failed to bracket n=%d (capacity too small?)", int(e.target))
			}
			ghi = e.excess(hi)
		}
	}

	// Close by ITP (interpolate, truncate, project): each step takes the
	// false-position point, nudges it toward the midpoint by delta, which
	// grows with the square of the bracket's width so the bracket shrinks
	// from both sides, and keeps it within r of the midpoint, where r shrinks
	// so the bracket reaches eps no later than itpSlack steps after a
	// bisection would.
	eps := fpmTolerance * (1 + lo) / 2
	width := hi - lo
	steps := int(math.Ceil(math.Log2(width/(2*eps)))) + itpSlack
	k1 := itpTruncation / width
	for j := 0; ghi != 0 && hi-lo > fpmTolerance*(1+hi); j++ {
		if err := ctx.Err(); err != nil {
			return 0, abandoned(err)
		}
		mid := lo + (hi-lo)/2
		xf := (ghi*lo - glo*hi) / (ghi - glo)
		toward := 1.0 // the direction from xf to mid
		if xf > mid {
			toward = -1
		}
		T := mid
		if delta := k1 * (hi - lo) * (hi - lo); delta <= math.Abs(mid-xf) {
			T = xf + toward*delta
		}
		if r := eps*math.Ldexp(1, steps-j) - (hi-lo)/2; math.Abs(T-mid) > r {
			T = mid - toward*r
		}
		if !(T > lo && T < hi) {
			T = mid
		}
		if g := e.excess(T); g < 0 {
			lo, glo = T, g
		} else {
			hi, ghi = T, g
		}
	}
	return hi, nil
}

// clampShares enforces per-device caps and redistributes the clipped
// overflow over the devices with headroom so the total stays at n (when
// feasible): proportionally to their current shares, or evenly when every
// free device sits at zero (proportional rescaling cannot move mass onto a
// zero share, which used to leave the overflow unassigned and let the
// integer top-up drift arbitrarily far from the scaled shares).
func clampShares(shares, cs []float64, n float64) {
	for iter := 0; iter < len(shares)+1; iter++ {
		var over float64
		var freeSum float64
		free := 0
		for i := range shares {
			if shares[i] > cs[i] {
				over += shares[i] - cs[i]
				shares[i] = cs[i]
			} else if shares[i] < cs[i] {
				freeSum += shares[i]
				free++
			}
		}
		if over <= 0 || free == 0 {
			return
		}
		if freeSum <= 0 {
			add := over / float64(free)
			for i := range shares {
				if shares[i] < cs[i] {
					shares[i] += add
				}
			}
			continue
		}
		scale := (freeSum + over) / freeSum
		for i := range shares {
			if shares[i] < cs[i] {
				shares[i] *= scale
			}
		}
	}
}
