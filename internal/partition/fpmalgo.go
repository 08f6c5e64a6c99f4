package partition

import (
	"context"
	"fmt"
	"strconv"

	"fpmpart/internal/fpm"
	"fpmpart/internal/telemetry"
)

// FPMOptions is empty: the solver has no knobs. The type and FPM's third
// parameter remain only because benchmark/ calls FPM(devices, n, FPMOptions{}).
type FPMOptions struct{}

const (
	// fpmTolerance is the relative width of the bracket on the common
	// completion time at which the bisection stops.
	fpmTolerance = 1e-9
	// fpmMaxIterations is the bisection's safety bound; a solve that hits
	// it reports Converged == false.
	fpmMaxIterations = 200
)

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
func FPM(devices []Device, n int, _ FPMOptions) (Result, error) {
	return FPMContext(context.Background(), devices, n, FPMOptions{})
}

// FPMContext is FPM with cooperative cancellation: the bisection checks ctx
// between iterations and returns ctx.Err() (wrapped) once the context is
// cancelled or its deadline passes. fpmd uses this to propagate per-request
// deadlines into the solver so abandoned requests stop consuming CPU.
func FPMContext(ctx context.Context, devices []Device, n int, _ FPMOptions) (Result, error) {
	if err := validate(devices, n); err != nil {
		return Result{}, err
	}
	// When ctx carries a request trace, the whole bisection is one
	// "bisection" stage and the iteration count lands on the trace, so the
	// flight recorder shows how much of a served request was solver time.
	defer telemetry.Stage(ctx, "bisection")()
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
	for i := 0; i < fpmMaxIterations; i++ {
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
		if hi-lo <= fpmTolerance*(1+hi) {
			converged = true
			break
		}
	}
	T := hi // smallest bracketed time with total(T) >= n

	shares := make([]float64, len(devices))
	for i := range shares {
		shares[i] = sizeFor(i, T)
	}
	// The continuous shares at T = hi sum to >= n. No scaling happens here:
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
