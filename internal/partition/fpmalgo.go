package partition

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"fpmpart/internal/fpm"
	"fpmpart/internal/telemetry"
)

// FPMOptions tunes the FPM-based partitioner.
type FPMOptions struct {
	// Tolerance is the relative tolerance on the total size when bisecting
	// the common completion time. Default 1e-9.
	Tolerance float64
	// MaxIterations bounds the bisection. Default 200.
	MaxIterations int
}

func (o FPMOptions) withDefaults() FPMOptions {
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-9
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 200
	}
	return o
}

// FPM runs the FPM-based data partitioning algorithm: it finds the common
// completion time T* such that the devices, each loaded with the most work
// it can finish within T*, together absorb exactly n units, then assigns
// x_i = x_i(T*) rounded to integers.
//
// The search is a bisection on T of the monotone non-decreasing function
// total(T) = Σ_i x_i(T), where x_i(T) inverts the monotone envelope of the
// device's execution-time function (see fpm.SizeFor). This is
// equivalent to the geometric line-rotation formulation of Lastovetsky &
// Reddy 2007: a line through the origin with slope n/T intersects the speed
// functions at the balanced distribution.
func FPM(devices []Device, n int, opts FPMOptions) (Result, error) {
	return FPMContext(context.Background(), devices, n, opts)
}

// FPMContext is FPM with cooperative cancellation: the bisection checks ctx
// between iterations and returns ctx.Err() (wrapped) once the context is
// cancelled or its deadline passes. fpmd uses this to propagate per-request
// deadlines into the solver so abandoned requests stop consuming CPU.
func FPMContext(ctx context.Context, devices []Device, n int, opts FPMOptions) (Result, error) {
	if err := validate(devices, n); err != nil {
		return Result{}, err
	}
	// When ctx carries a request trace, the whole bisection is one
	// "bisection" stage and the iteration count lands on the trace, so the
	// flight recorder shows how much of a served request was solver time.
	defer telemetry.Stage(ctx, "bisection")()
	opts = opts.withDefaults()
	if n == 0 {
		return finish(devices, make([]int, len(devices))), nil
	}

	// x_i(T) is exact and allocation-free for the piecewise-linear models
	// the service and the experiments use (fpm.SizeFor), so the bisection
	// simply re-evaluates it: one solve is ~60 × len(devices) segment
	// lookups.
	sizeFor := func(i int, T float64) float64 {
		return fpm.SizeFor(devices[i].Model, T, devices[i].MaxUnits)
	}
	total := func(T float64) float64 {
		var s float64
		for i := range devices {
			s += sizeFor(i, T)
		}
		return s
	}

	// Bracket T*: start from the time the fastest single device would need
	// for the whole problem, which is always an upper bound... only if that
	// device can hold n. More robustly: grow hi until total(hi) >= n.
	hi := 1e-6
	for total(hi) < float64(n) {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("partition: FPM solve abandoned: %w", err)
		}
		hi *= 2
		if hi > 1e18 {
			return Result{}, fmt.Errorf("partition: FPM bisection failed to bracket n=%d (capacity too small?)", n)
		}
	}
	lo := 0.0
	target := float64(n)
	iterations := 0
	converged := false
	// Per-iteration events are built only for an installed sink: the
	// registry is enabled in every daemon, an event log almost never.
	var events *telemetry.EventLog
	if reg := telemetry.Default(); reg.Enabled() {
		events = reg.EventLog()
	}
	for i := 0; i < opts.MaxIterations; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("partition: FPM solve abandoned: %w", err)
		}
		iterations = i + 1
		mid := (lo + hi) / 2
		if total(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
		if events != nil {
			// Per-iteration share evolution: how each device's tentative
			// allocation x_i(T) moves as the bisection narrows T*.
			evo := make([]float64, len(devices))
			for d := range devices {
				evo[d] = sizeFor(d, hi)
			}
			events.Emit("partition.fpm.iteration",
				"iteration", iterations, "t_lo", lo, "t_hi", hi, "shares", evo)
		}
		if hi-lo <= opts.Tolerance*(1+hi) {
			converged = true
			break
		}
	}
	T := hi // smallest bracketed time with total(T) >= n

	shares := make([]float64, len(devices))
	for i := range shares {
		shares[i] = sizeFor(i, T)
	}
	// The continuous shares at T = hi sum to >= n, and with a loose
	// Tolerance the overshoot can be substantial. No scaling happens here:
	// the sum is only an emptiness check, and RoundShares normalizes the
	// shares to total exactly n (proportional scaling + largest-remainder
	// rounding), so overshoot affects the split only through the devices'
	// relative shares at T.
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum <= 0 {
		return Result{}, fmt.Errorf("partition: FPM produced empty distribution for n=%d", n)
	}
	units, err := RoundShares(shares, n, caps(devices))
	if err != nil {
		return Result{}, err
	}
	res := finish(devices, units)
	res.Iterations = iterations
	res.Converged = converged
	telemetry.AnnotateTrace(ctx, "solve_iterations", strconv.Itoa(iterations))
	recordResult("fpm", fpmRunsTotal, res)
	return res, nil
}

// FPMIterative is the alternative fixed-point formulation of the FPM
// partitioner used for cross-validation: start from a CPM-like distribution
// and repeatedly redistribute proportionally to the speeds observed at the
// current assignment, damping the update. For well-behaved (monotone-time)
// models it converges to the same equal-time distribution as FPM.
func FPMIterative(devices []Device, n int, maxIter int) (Result, error) {
	if err := validate(devices, n); err != nil {
		return Result{}, err
	}
	if maxIter <= 0 {
		maxIter = 500
	}
	if n == 0 {
		return finish(devices, make([]int, len(devices))), nil
	}
	p := len(devices)
	shares := make([]float64, p)
	for i := range shares {
		shares[i] = float64(n) / float64(p)
	}
	cs := caps(devices)
	clampShares(shares, cs, float64(n))
	iterations := 0
	converged := false
	for iter := 0; iter < maxIter; iter++ {
		iterations = iter + 1
		speeds := make([]float64, p)
		var sum float64
		for i, d := range devices {
			x := math.Max(shares[i], 1e-9)
			speeds[i] = d.Model.Speed(x)
			sum += speeds[i]
		}
		next := make([]float64, p)
		for i := range next {
			want := float64(n) * speeds[i] / sum
			// Damped update for stability on steep speed functions.
			next[i] = 0.5*shares[i] + 0.5*want
		}
		clampShares(next, cs, float64(n))
		var delta float64
		for i := range next {
			delta += math.Abs(next[i] - shares[i])
		}
		shares = next
		if delta < 1e-9*float64(n) {
			converged = true
			break
		}
	}
	units, err := RoundShares(shares, n, cs)
	if err != nil {
		return Result{}, err
	}
	res := finish(devices, units)
	res.Iterations = iterations
	res.Converged = converged
	recordResult("fpm-iterative", fpmIterativeTotal, res)
	return res, nil
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
