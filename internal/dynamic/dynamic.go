// Package dynamic implements a dynamic load-balancing baseline for
// iterative data-parallel routines, after Clarke, Lastovetsky & Rychkov
// (Parallel Processing Letters 2011 — reference [14] of the paper): the
// application starts from some initial distribution; after each iteration
// the per-device execution times are observed, and when the imbalance
// exceeds a threshold the workload is redistributed in proportion to the
// observed speeds, paying a migration cost for every unit moved.
//
// The paper's argument — that static FPM partitioning is preferable on
// dedicated platforms, and that dynamic algorithms use static partitioning
// for their initial step — is made quantitative by the ablation experiment
// comparing convergence and total cost of this balancer from homogeneous,
// CPM and FPM starting points.
package dynamic

import (
	"errors"
	"fmt"
	"math"

	"fpmpart/internal/partition"
)

// Oracle reports the true execution time of one iteration on a device
// carrying the given number of units. It abstracts the (simulated or real)
// platform the balancer runs against.
type Oracle func(device, units int) float64

// threshold is the relative imbalance ((max-min)/min) above which a
// redistribution is triggered.
const threshold = 0.05

// Options tunes the balancer.
type Options struct {
	// MigrationCost is the time charged per unit moved between devices
	// (data redistribution over shared memory or network). Default 0.
	MigrationCost float64
}

// Step records one application iteration.
type Step struct {
	// Units is the distribution used this iteration.
	Units []int
	// Makespan is the slowest device's time this iteration.
	Makespan float64
	// Imbalance is (max-min)/min of the per-device times.
	Imbalance float64
	// Moved is the number of units migrated after this iteration.
	Moved int
	// MigrationSeconds is the redistribution cost paid after this
	// iteration.
	MigrationSeconds float64
}

// Trace is the complete run of the balancer.
type Trace struct {
	Steps []Step
	// TotalSeconds is Σ makespan + Σ migration.
	TotalSeconds float64
	// TotalMoved is the cumulative units migrated.
	TotalMoved int
	// Rebalances counts redistribution events.
	Rebalances int
}

// FinalImbalance returns the imbalance of the last step, or NaN for an
// empty trace.
func (tr Trace) FinalImbalance() float64 {
	if len(tr.Steps) == 0 {
		return math.NaN()
	}
	return tr.Steps[len(tr.Steps)-1].Imbalance
}

// Run executes nIters iterations of an application distributed as initial,
// rebalancing by observed speed whenever the imbalance exceeds the
// threshold. The initial distribution's total is preserved throughout.
func Run(oracle Oracle, initial []int, nIters int, opts Options) (Trace, error) {
	if oracle == nil {
		return Trace{}, errors.New("dynamic: nil oracle")
	}
	if len(initial) == 0 {
		return Trace{}, errors.New("dynamic: empty initial distribution")
	}
	if nIters <= 0 {
		return Trace{}, fmt.Errorf("dynamic: invalid iteration count %d", nIters)
	}
	total := 0
	units := make([]int, len(initial))
	for i, u := range initial {
		if u < 0 {
			return Trace{}, fmt.Errorf("dynamic: negative initial units %d", u)
		}
		units[i] = u
		total += u
	}
	if total == 0 {
		return Trace{}, errors.New("dynamic: nothing to balance")
	}

	var tr Trace
	caps := make([]float64, len(units))
	for i := range caps {
		caps[i] = math.Inf(1)
	}
	for it := 0; it < nIters; it++ {
		times := make([]float64, len(units))
		lo, hi := math.Inf(1), 0.0
		for d, u := range units {
			if u == 0 {
				times[d] = 0
				continue
			}
			t := oracle(d, u)
			if t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
				return Trace{}, fmt.Errorf("dynamic: oracle returned invalid time %v for device %d", t, d)
			}
			times[d] = t
			if t < lo {
				lo = t
			}
			if t > hi {
				hi = t
			}
		}
		step := Step{Units: append([]int(nil), units...), Makespan: hi}
		if !math.IsInf(lo, 1) && lo > 0 {
			step.Imbalance = hi/lo - 1
		}
		// An idle device while there is enough work to share is the worst
		// possible imbalance: its time is zero.
		if total >= len(units) {
			for _, u := range units {
				if u == 0 {
					step.Imbalance = math.Inf(1)
					break
				}
			}
		}
		// Rebalance when out of tolerance (and not on the final iteration,
		// where it could no longer pay off).
		if step.Imbalance > threshold && it < nIters-1 {
			next, err := Redistribute(units, times, total, caps)
			if err != nil {
				return Trace{}, err
			}
			moved := 0
			for d := range next {
				if diff := next[d] - units[d]; diff > 0 {
					moved += diff
				}
			}
			step.Moved = moved
			step.MigrationSeconds = float64(moved) * opts.MigrationCost
			units = next
			tr.Rebalances++
			tr.TotalMoved += moved
		}
		tr.Steps = append(tr.Steps, step)
		tr.TotalSeconds += step.Makespan + step.MigrationSeconds
	}
	return tr, nil
}

// Redistribute is the balancer's proportional rule: it splits total units
// over the devices in proportion to the speed each showed on its last share,
// units[d]/times[d], within caps (+Inf for an uncapped device). A device
// that ran nothing has no observed speed; it is probed with the average
// apparent speed total/p/hi, hi being the slowest observed time, so it can
// re-enter the distribution.
func Redistribute(units []int, times []float64, total int, caps []float64) ([]int, error) {
	hi := 0.0
	for d, u := range units {
		if u > 0 && times[d] > hi {
			hi = times[d]
		}
	}
	if hi == 0 {
		return nil, errors.New("dynamic: no observed speeds to redistribute by")
	}
	speeds := make([]float64, len(units))
	for d, u := range units {
		if u > 0 && times[d] > 0 {
			speeds[d] = float64(u) / times[d]
		} else {
			speeds[d] = float64(total) / float64(len(units)) / hi
		}
	}
	return partition.RoundShares(speeds, total, caps)
}
