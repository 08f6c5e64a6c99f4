// Package partition implements the data partitioning algorithms compared in
// the CLUSTER 2012 paper:
//
//   - FPM-based partitioning (Lastovetsky & Reddy 2007): given functional
//     performance models s_i(x) of p devices and a total problem size n, find
//     a distribution x_1..x_p with Σx_i = n such that all devices complete
//     their work in (approximately) the same time: x_i/s_i(x_i) ≈ const.
//   - CPM-based partitioning: workload proportional to constant speeds.
//   - Homogeneous partitioning: equal shares.
//
// Problem sizes are expressed in application-defined computation units (for
// the paper's matrix multiplication, b×b matrix blocks of area). Continuous
// solutions are rounded to integers with a largest-remainder scheme that
// preserves the total and respects per-device capacity limits.
package partition

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"fpmpart/internal/fpm"
)

// Device describes one processing element offered to the partitioner.
type Device struct {
	// Name identifies the device in results (e.g. "GTX680", "socket1x6").
	Name string
	// Model is the device's performance model (FPM or CPM).
	Model fpm.SpeedFunction
	// MaxUnits caps the work assignable to the device (e.g. out-of-core
	// limits, or 0 for no cap). The FPM partitioner never exceeds it.
	MaxUnits float64
}

// Assignment is the partitioner's output for one device.
type Assignment struct {
	Device Device
	// Units is the integer number of computation units assigned.
	Units int
	// PredictedTime is the model-predicted execution time for Units.
	PredictedTime float64
}

// Result is a complete partition of n units over the devices.
type Result struct {
	Assignments []Assignment
	// Total is the sum of assigned units (always the requested n).
	Total int
	// MaxTime and MinTime are the extreme predicted per-device times over
	// devices that received work; their ratio measures predicted imbalance.
	MaxTime, MinTime float64
	// Iterations is the number of bisection steps FPM performed;
	// closed-form partitioners report 0.
	Iterations int
	// Converged reports whether the solver met its tolerance before
	// exhausting its iteration bound. A false value means the bisection was
	// truncated and callers should treat the result with suspicion;
	// closed-form partitioners are always converged.
	Converged bool
}

// Units returns the assigned units in device order.
func (r Result) Units() []int {
	out := make([]int, len(r.Assignments))
	for i, a := range r.Assignments {
		out[i] = a.Units
	}
	return out
}

// Imbalance returns MaxTime/MinTime - 1, the predicted relative load
// imbalance (0 means perfectly balanced; NaN when fewer than two devices
// received work).
func (r Result) Imbalance() float64 {
	if r.MinTime <= 0 {
		return math.NaN()
	}
	return r.MaxTime/r.MinTime - 1
}

func validate(devices []Device, n int) error {
	if n < 0 {
		return fmt.Errorf("partition: negative problem size %d", n)
	}
	if len(devices) == 0 {
		return errors.New("partition: no devices")
	}
	var capSum float64
	capped := true
	for i, d := range devices {
		if d.Model == nil {
			return fmt.Errorf("partition: device %d (%s) has no model", i, d.Name)
		}
		if d.MaxUnits < 0 {
			return fmt.Errorf("partition: device %d (%s) has negative cap", i, d.Name)
		}
		if d.MaxUnits == 0 {
			capped = false
		}
		capSum += d.MaxUnits
	}
	if capped && capSum < float64(n) {
		return fmt.Errorf("partition: combined device capacity %v < problem size %d", capSum, n)
	}
	return nil
}

// finish converts integer unit counts into a Result with predicted times.
// The result is marked Converged; iterative solvers overwrite the
// diagnostics afterwards.
func finish(devices []Device, units []int) Result {
	res := Result{Assignments: make([]Assignment, len(devices)), Converged: true}
	res.MinTime = math.Inf(1)
	for i, d := range devices {
		t := fpm.Time(d.Model, float64(units[i]))
		res.Assignments[i] = Assignment{Device: d, Units: units[i], PredictedTime: t}
		res.Total += units[i]
		if units[i] > 0 {
			if t > res.MaxTime {
				res.MaxTime = t
			}
			if t < res.MinTime {
				res.MinTime = t
			}
		}
	}
	if math.IsInf(res.MinTime, 1) {
		res.MinTime = 0
	}
	return res
}

// Homogeneous distributes n units evenly across the devices (the paper's
// "homogeneous partitioning" baseline, which dedicated heterogeneous systems
// should never use but which bounds the win from modelling).
func Homogeneous(devices []Device, n int) (Result, error) {
	if err := validate(devices, n); err != nil {
		return Result{}, err
	}
	p := len(devices)
	units := make([]int, p)
	base, rem := n/p, n%p
	for i := range units {
		units[i] = base
		if i < rem {
			units[i]++
		}
	}
	res := finish(devices, units)
	recordResult("homogeneous", homRunsTotal, res)
	return res, nil
}

// CPM distributes n units in proportion to constant speeds probed from each
// device's model at the reference size refUnits (per paper: constants come
// from measurements with the workload distributed evenly, so callers
// typically pass refUnits = n/p).
func CPM(devices []Device, n int, refUnits float64) (Result, error) {
	if err := validate(devices, n); err != nil {
		return Result{}, err
	}
	speeds := make([]float64, len(devices))
	var sum float64
	for i, d := range devices {
		s := d.Model.Speed(refUnits)
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return Result{}, fmt.Errorf("partition: device %s has invalid speed %v at ref %v", d.Name, s, refUnits)
		}
		speeds[i] = s
		sum += s
	}
	shares := make([]float64, len(devices))
	for i := range shares {
		shares[i] = float64(n) * speeds[i] / sum
	}
	units, err := RoundShares(shares, n, caps(devices))
	if err != nil {
		return Result{}, err
	}
	res := finish(devices, units)
	recordResult("cpm", cpmRunsTotal, res)
	return res, nil
}

func caps(devices []Device) []float64 {
	cs := make([]float64, len(devices))
	for i, d := range devices {
		if d.MaxUnits > 0 {
			cs[i] = d.MaxUnits
		} else {
			cs[i] = math.Inf(1)
		}
	}
	return cs
}

// String renders the result as one line per device with predicted times.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d units over %d devices:", r.Total, len(r.Assignments))
	for _, a := range r.Assignments {
		fmt.Fprintf(&b, " %s=%d(%.3gs)", a.Device.Name, a.Units, a.PredictedTime)
	}
	if im := r.Imbalance(); !math.IsNaN(im) {
		fmt.Fprintf(&b, " imbalance=%.1f%%", im*100)
	}
	return b.String()
}
