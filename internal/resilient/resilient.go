// Package resilient executes the iterative data-parallel application with
// failure detection and FPM-based recovery. It is the fault-tolerant
// counterpart of internal/dynamic's balancer: where dynamic.Run reacts to
// *imbalance*, resilient.Run reacts to *failure* — a device that crashes,
// stalls or degrades mid-run (injected by internal/faults, or observed on a
// real platform as timings that no longer match the model).
//
// The design follows the paper's own logic one step further: static FPM
// partitioning is preferable on a dedicated, stable platform, so the right
// response to the platform *becoming unstable* is to re-establish a static
// FPM distribution over the devices that still behave as modelled
// (Clarke et al.'s self-adaptable algorithms make the same move). The loop:
//
//  1. Partition n units over the devices with partition.FPM and record the
//     model-predicted per-device times.
//  2. Each iteration, execute every device's share through an
//     iteration-aware oracle. A failed call is retried with capped
//     exponential backoff — transient stalls recover, crashes do not.
//  3. An iteration whose observed time deviates from the FPM prediction by
//     more than half is an anomaly; three consecutive anomalies confirm a
//     degradation.
//  4. On a confirmed failure the device is dropped (crash) or demoted
//     (degradation: its model is rescaled to the observed speed), the
//     surviving work is re-partitioned with partition.FPM, the moved units
//     are charged Options.MigrationCost each, and the victim's share of the
//     interrupted iteration is re-executed by the survivors before the run
//     continues.
//
// Recovery policies FPMRepartition, Proportional and NoRecovery exist so
// the recovery experiment can compare FPM re-partitioning against the
// dynamic balancer's proportional rule (dynamic.Redistribute) and against
// doing nothing.
package resilient

import (
	"errors"
	"fmt"
	"math"

	"fpmpart/internal/dynamic"
	"fpmpart/internal/faults"
	"fpmpart/internal/fpm"
	"fpmpart/internal/partition"
)

// Detection and retry constants.
const (
	// deviationThreshold is the relative deviation of an observed iteration
	// time from its FPM prediction ((obs-pred)/pred) above which the
	// iteration counts as an anomaly.
	deviationThreshold = 0.5
	// strikeLimit is the number of consecutive anomalous iterations that
	// confirm a degradation (transients shorter than this ride through on
	// the strike counter alone).
	strikeLimit = 3
	// maxRetries caps the retry attempts of a failed oracle call.
	maxRetries = 4
	// retryBackoff is the delay in seconds charged before the first retry,
	// doubling on each subsequent one.
	retryBackoff = 1e-3
)

// Policy selects how a confirmed failure is recovered.
type Policy int

// Recovery policies.
const (
	// FPMRepartition re-partitions the surviving devices with partition.FPM
	// on their (possibly demoted) functional performance models.
	FPMRepartition Policy = iota
	// Proportional redistributes in proportion to the speeds (units per
	// second) observed on each survivor's last share — the dynamic
	// balancer's rule, dynamic.Redistribute.
	Proportional
	// NoRecovery drops the device's work on the floor: no redistribution,
	// the lost units are never processed. The run reports Completed=false.
	NoRecovery
)

func (p Policy) String() string {
	switch p {
	case FPMRepartition:
		return "fpm-repartition"
	case Proportional:
		return "proportional"
	case NoRecovery:
		return "no-recovery"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Options selects the recovery policy and prices migration.
type Options struct {
	// MigrationCost is the time charged per unit moved. Default 0.
	MigrationCost float64
	// Policy is the recovery policy. Default FPMRepartition.
	Policy Policy
}

// EventKind classifies trace events.
type EventKind int

// Event kinds.
const (
	// EventAnomaly is one iteration whose time deviated beyond threshold.
	EventAnomaly EventKind = iota
	// EventRetry is one backoff retry of a failed oracle call.
	EventRetry
	// EventDrop is a device removed after a permanent failure.
	EventDrop
	// EventDemote is a device whose model was rescaled to observed speed.
	EventDemote
	// EventRepartition is a recovery redistribution.
	EventRepartition
	// EventLost is work abandoned under NoRecovery.
	EventLost
)

func (k EventKind) String() string {
	switch k {
	case EventAnomaly:
		return "anomaly"
	case EventRetry:
		return "retry"
	case EventDrop:
		return "drop"
	case EventDemote:
		return "demote"
	case EventRepartition:
		return "repartition"
	case EventLost:
		return "lost"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event records one detection or recovery action.
type Event struct {
	Iter   int
	Device int // -1 for run-wide events (repartition)
	Kind   EventKind
	// Detail is a human-readable explanation.
	Detail string
}

// Step records one application iteration.
type Step struct {
	// Iter is the iteration index.
	Iter int
	// Units is the distribution the iteration ran with (before any
	// recovery this iteration triggered).
	Units []int
	// Makespan is the slowest device's time, including retry backoff.
	Makespan float64
	// RetrySeconds is the backoff charged this iteration.
	RetrySeconds float64
	// MigrationSeconds is the redistribution cost paid this iteration.
	MigrationSeconds float64
	// RecoverySeconds is the time survivors spent re-executing a failed
	// device's share of this iteration.
	RecoverySeconds float64
	// Moved is the number of units migrated by recovery this iteration.
	Moved int
}

// seconds is the wall-clock charge of the step.
func (s Step) seconds() float64 {
	return s.Makespan + s.MigrationSeconds + s.RecoverySeconds
}

// Trace is the complete run.
type Trace struct {
	Steps  []Step
	Events []Event
	// TotalSeconds is Σ (makespan + migration + recovery) over the steps.
	TotalSeconds float64
	// UnitsProcessed is the total work actually executed: n per fully
	// completed iteration (including recovered shares).
	UnitsProcessed int
	// LostUnits is work never executed (NoRecovery after a failure).
	LostUnits int
	// Rebalances counts recovery redistributions.
	Rebalances int
	// Retries counts backoff retries.
	Retries int
	// Dropped and Demoted list affected device indices in event order.
	Dropped, Demoted []int
	// Completed reports whether every iteration processed all n units.
	Completed bool
	// FinalUnits is the distribution after the last iteration.
	FinalUnits []int
}

// deviceState is the runtime's view of one device.
type deviceState struct {
	dev     partition.Device
	alive   bool
	strikes int
	// lastUnits and lastTime are the share and time of the last
	// successfully observed iteration.
	lastUnits int
	lastTime  float64
}

// Run executes nIters iterations of the application over n units on the
// given devices through the oracle, partitioning with partition.FPM and
// recovering from failures per the options. The oracle is typically a
// faults.Injector-wrapped platform oracle; a fault-free oracle makes Run
// equivalent to a static FPM run.
func Run(devices []partition.Device, oracle faults.Oracle, n, nIters int, opts Options) (Trace, error) {
	if oracle == nil {
		return Trace{}, errors.New("resilient: nil oracle")
	}
	if len(devices) == 0 {
		return Trace{}, errors.New("resilient: no devices")
	}
	if n <= 0 || nIters <= 0 {
		return Trace{}, fmt.Errorf("resilient: invalid problem size n=%d, iterations=%d", n, nIters)
	}
	if opts.MigrationCost < 0 {
		return Trace{}, fmt.Errorf("resilient: negative migration cost %v", opts.MigrationCost)
	}

	state := make([]*deviceState, len(devices))
	for i, d := range devices {
		state[i] = &deviceState{dev: d, alive: true}
	}
	units, err := partitionAlive(state, n)
	if err != nil {
		return Trace{}, fmt.Errorf("resilient: initial partition: %w", err)
	}
	preds := predict(state, units)

	tr := Trace{Completed: true}
	for it := 0; it < nIters; it++ {
		step := Step{Iter: it, Units: append([]int(nil), units...)}
		var failed []int
		var confirmedSlow []int
		for d, st := range state {
			if !st.alive || units[d] == 0 {
				continue
			}
			t, retrySec, retries, err := attempt(oracle, d, units[d], it, &tr)
			step.RetrySeconds += retrySec
			tr.Retries += retries
			if err != nil {
				// Permanent failure: retries exhausted (crash, or a stall
				// longer than the retry budget). The time burnt waiting on
				// the victim still bounds the iteration from below.
				if retrySec > step.Makespan {
					step.Makespan = retrySec
				}
				failed = append(failed, d)
				tr.Events = append(tr.Events, Event{Iter: it, Device: d, Kind: EventDrop,
					Detail: err.Error()})
				continue
			}
			st.lastUnits, st.lastTime = units[d], t
			total := t + retrySec
			if total > step.Makespan {
				step.Makespan = total
			}
			// Anomaly detection against the FPM prediction.
			if pred := preds[d]; pred > 0 {
				relDev := (t - pred) / pred
				if relDev > deviationThreshold {
					st.strikes++
					tr.Events = append(tr.Events, Event{Iter: it, Device: d, Kind: EventAnomaly,
						Detail: fmt.Sprintf("observed %.3gs vs predicted %.3gs (%.0f%% over)", t, pred, relDev*100)})
					if st.strikes >= strikeLimit {
						confirmedSlow = append(confirmedSlow, d)
					}
				} else {
					st.strikes = 0
				}
			}
		}

		if len(failed) > 0 {
			lostThisIter := 0
			for _, d := range failed {
				state[d].alive = false
				lostThisIter += units[d]
				tr.Dropped = append(tr.Dropped, d)
			}
			if opts.Policy == NoRecovery {
				// The failed share of this and every remaining iteration is
				// abandoned; the survivors plod on with their old shares.
				remaining := nIters - it
				tr.LostUnits += lostThisIter * remaining
				tr.Completed = false
				for _, d := range failed {
					units[d] = 0
					tr.Events = append(tr.Events, Event{Iter: it, Device: d, Kind: EventLost,
						Detail: fmt.Sprintf("%d units/iteration abandoned for %d iterations", lostThisIter, remaining)})
				}
				tr.UnitsProcessed += n - lostThisIter
			} else {
				next, err := repartition(state, n, opts)
				if err != nil {
					return tr, fmt.Errorf("resilient: recovery at iteration %d: %w", it, err)
				}
				moved := unitsMoved(units, next)
				step.Moved += moved
				step.MigrationSeconds += float64(moved) * opts.MigrationCost
				// Survivors re-execute the victims' share of this iteration,
				// split in proportion to their new assignment.
				recSec, err := recoverResidual(oracle, state, next, lostThisIter, n, it)
				if err != nil {
					return tr, fmt.Errorf("resilient: residual re-execution at iteration %d: %w", it, err)
				}
				step.RecoverySeconds += recSec
				units = next
				preds = predict(state, units)
				tr.Rebalances++
				tr.Events = append(tr.Events, Event{Iter: it, Device: -1, Kind: EventRepartition,
					Detail: fmt.Sprintf("%s over %d survivors, %d units moved", opts.Policy, alive(state), moved)})
				tr.UnitsProcessed += n
			}
		} else {
			// Work lost to an earlier NoRecovery drop was charged to
			// LostUnits at drop time; sum(units) is what actually ran.
			tr.UnitsProcessed += sum(units)
		}

		if len(confirmedSlow) > 0 && opts.Policy != NoRecovery {
			for _, d := range confirmedSlow {
				st := state[d]
				// Demote: rescale the model to the observed speed so the
				// re-partition believes the degraded reality.
				obs, pred := st.lastTime, preds[d]
				factor := 1.0
				if obs > 0 && pred > 0 {
					factor = pred / obs
					st.dev.Model = fpm.Scaled{Base: st.dev.Model, Factor: factor}
				}
				st.strikes = 0
				tr.Demoted = append(tr.Demoted, d)
				tr.Events = append(tr.Events, Event{Iter: it, Device: d, Kind: EventDemote,
					Detail: fmt.Sprintf("model rescaled by %.3g after %d strikes", factor, strikeLimit)})
			}
			next, err := repartition(state, n, opts)
			if err != nil {
				return tr, fmt.Errorf("resilient: demotion re-partition at iteration %d: %w", it, err)
			}
			moved := unitsMoved(units, next)
			migration := float64(moved) * opts.MigrationCost
			step.Moved += moved
			step.MigrationSeconds += migration
			units = next
			preds = predict(state, units)
			tr.Rebalances++
			tr.Events = append(tr.Events, Event{Iter: it, Device: -1, Kind: EventRepartition,
				Detail: fmt.Sprintf("%s after demotion, %d units moved", opts.Policy, moved)})
		}

		tr.Steps = append(tr.Steps, step)
		tr.TotalSeconds += step.seconds()
	}
	tr.FinalUnits = append([]int(nil), units...)
	if tr.UnitsProcessed < n*nIters {
		tr.Completed = false
	}
	return tr, nil
}

// attempt executes one device's share with capped exponential backoff. It
// returns the successful iteration time, the backoff seconds charged, and
// the number of retries performed; err is non-nil only when every attempt
// failed.
func attempt(oracle faults.Oracle, d, u, it int, tr *Trace) (t, backoff float64, retries int, err error) {
	t, err = oracle(d, u, it)
	if err == nil {
		if err = checkTime(t, d); err != nil {
			return 0, backoff, retries, err
		}
		return t, 0, 0, nil
	}
	if errors.Is(err, faults.ErrCrashed) {
		// A crash is permanent by contract: don't burn backoff on it.
		return 0, 0, 0, err
	}
	delay := retryBackoff
	for r := 0; r < maxRetries; r++ {
		backoff += delay
		delay *= 2
		retries++
		tr.Events = append(tr.Events, Event{Iter: it, Device: d, Kind: EventRetry,
			Detail: fmt.Sprintf("attempt %d after %v", r+1, err)})
		t, err = oracle(d, u, it)
		if err == nil {
			if err = checkTime(t, d); err != nil {
				return 0, backoff, retries, err
			}
			return t, backoff, retries, nil
		}
		if errors.Is(err, faults.ErrCrashed) {
			break
		}
	}
	return 0, backoff, retries, err
}

func checkTime(t float64, d int) error {
	if t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("resilient: oracle returned invalid time %v for device %d", t, d)
	}
	return nil
}

// partitionAlive runs an FPM partition over all live devices.
func partitionAlive(state []*deviceState, n int) ([]int, error) {
	devs := make([]partition.Device, 0, len(state))
	idx := make([]int, 0, len(state))
	for i, st := range state {
		if st.alive {
			devs = append(devs, st.dev)
			idx = append(idx, i)
		}
	}
	if len(devs) == 0 {
		return nil, errors.New("resilient: no surviving devices")
	}
	res, err := partition.FPM(devs, n, partition.FPMOptions{})
	if err != nil {
		return nil, err
	}
	units := make([]int, len(state))
	for j, u := range res.Units() {
		units[idx[j]] = u
	}
	return units, nil
}

// repartition redistributes n units over the live devices per the policy.
func repartition(state []*deviceState, n int, opts Options) ([]int, error) {
	if opts.Policy != Proportional {
		return partitionAlive(state, n)
	}
	var idx, last []int
	var times, caps []float64
	for i, st := range state {
		if !st.alive {
			continue
		}
		idx = append(idx, i)
		last = append(last, st.lastUnits)
		times = append(times, st.lastTime)
		c := math.Inf(1)
		if mu := st.dev.MaxUnits; mu > 0 {
			c = mu
		}
		caps = append(caps, c)
	}
	if len(idx) == 0 {
		return nil, errors.New("resilient: no surviving devices")
	}
	shares, err := dynamic.Redistribute(last, times, n, caps)
	if err != nil {
		return nil, err
	}
	units := make([]int, len(state))
	for j, u := range shares {
		units[idx[j]] = u
	}
	return units, nil
}

// recoverResidual re-executes the failed devices' share of the interrupted
// iteration on the survivors, split in proportion to their new assignment,
// and returns the extra makespan. When a survivor's oracle call fails too
// (e.g. it is itself stalled), its model prediction stands in — the charge
// must not be lost just because the platform is having a bad day.
func recoverResidual(oracle faults.Oracle, state []*deviceState, next []int, residual, n, it int) (float64, error) {
	if residual <= 0 {
		return 0, nil
	}
	var makespan float64
	for d, st := range state {
		if !st.alive || next[d] == 0 {
			continue
		}
		extra := int(math.Round(float64(residual) * float64(next[d]) / float64(n)))
		if extra <= 0 {
			continue
		}
		t, err := oracle(d, extra, it)
		if err != nil || t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			t = fpm.Time(st.dev.Model, float64(extra))
		}
		if t > makespan {
			makespan = t
		}
	}
	return makespan, nil
}

// predict returns the FPM-predicted per-device iteration times for units.
func predict(state []*deviceState, units []int) []float64 {
	preds := make([]float64, len(state))
	for i, st := range state {
		if st.alive && units[i] > 0 {
			preds[i] = fpm.Time(st.dev.Model, float64(units[i]))
		}
	}
	return preds
}

func unitsMoved(old, next []int) int {
	moved := 0
	for i := range next {
		if d := next[i] - old[i]; d > 0 {
			moved += d
		}
	}
	return moved
}

func alive(state []*deviceState) int {
	n := 0
	for _, st := range state {
		if st.alive {
			n++
		}
	}
	return n
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
