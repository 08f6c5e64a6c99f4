// Package resilient runs the iterative data-parallel application: every
// iteration executes each device's share, observes the times, and
// re-partitions when the platform calls for it. It is the one simulated
// iteration loop, behind both the dynamic-balancing ablation and the fault
// recovery experiment.
//
// The paper sets static FPM partitioning against dynamic load balancing
// (Clarke, Lastovetsky & Rychkov, reference [14]): a dynamic algorithm
// starts from some distribution, observes per-device times after each
// iteration and redistributes by observed speed when the imbalance is too
// high, paying a migration cost for every unit moved. The same loop answers
// an unstable platform — a device that crashes, stalls or degrades mid-run
// (injected by internal/faults) — by re-establishing a distribution over
// the devices that still behave as modelled:
//
//  1. Start from the given distribution and record each device's
//     model-predicted time.
//  2. Each iteration, execute every device's share through an
//     iteration-aware oracle. A failed call is retried with capped
//     exponential backoff — transient stalls recover, crashes do not.
//  3. An iteration whose observed time deviates from the FPM prediction by
//     more than half is an anomaly; three consecutive anomalies confirm a
//     degradation, and the device is demoted (its model rescaled to the
//     observed speed).
//  4. Re-partition once after an iteration in which a device failed, a
//     device was demoted, or the observed imbalance exceeded 5% (imbalance
//     alone never triggers after the last iteration). The policy picks the
//     new distribution; every unit moved is charged Options.MigrationCost,
//     and the survivors re-execute a failed device's share of the
//     interrupted iteration.
//
// FPMRepartition re-solves partition.FPM on the (possibly demoted) models,
// so from an FPM start it only moves work after a failure or demotion. Proportional is the
// dynamic balancer's rule. NoRecovery keeps the distribution and abandons a
// failed device's work.
package resilient

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"fpmpart/internal/faults"
	"fpmpart/internal/fpm"
	"fpmpart/internal/partition"
)

// Detection, retry and balancing constants.
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
	// imbalanceThreshold is the observed imbalance ((max-min)/min of the
	// per-device times) above which an iteration triggers a re-partition.
	imbalanceThreshold = 0.05
)

// Policy selects what a re-partition returns.
type Policy int

// Recovery policies.
const (
	// FPMRepartition re-partitions the surviving devices with partition.FPM
	// on their (possibly demoted) functional performance models.
	FPMRepartition Policy = iota
	// Proportional redistributes in proportion to the speeds (units per
	// second) each live device showed this iteration — the dynamic
	// balancer's rule.
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
	// EventRepartition is a re-partition that moved work.
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
	// Moved is the number of units migrated after this iteration.
	Moved int
	// Imbalance is (max-min)/min of the live devices' times, +Inf when a
	// live device sat idle with at least one unit per live device to share.
	Imbalance float64
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
	// Rebalances counts re-partitions that moved work.
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
}

// Run executes nIters iterations of the application distributed as initial
// (n = Σ initial units) over the devices through the oracle, re-partitioning
// per the options. The oracle is typically a faults.Injector-wrapped
// platform oracle.
func Run(devices []partition.Device, oracle faults.Oracle, initial []int, nIters int, opts Options) (Trace, error) {
	if oracle == nil {
		return Trace{}, errors.New("resilient: nil oracle")
	}
	if len(devices) == 0 {
		return Trace{}, errors.New("resilient: no devices")
	}
	if len(initial) != len(devices) {
		return Trace{}, fmt.Errorf("resilient: %d initial shares for %d devices", len(initial), len(devices))
	}
	if nIters <= 0 {
		return Trace{}, fmt.Errorf("resilient: invalid iteration count %d", nIters)
	}
	if opts.MigrationCost < 0 {
		return Trace{}, fmt.Errorf("resilient: negative migration cost %v", opts.MigrationCost)
	}
	n := 0
	for _, u := range initial {
		if u < 0 {
			return Trace{}, fmt.Errorf("resilient: negative initial share %d", u)
		}
		n += u
	}
	if n == 0 {
		return Trace{}, errors.New("resilient: nothing to distribute")
	}

	state := make([]*deviceState, len(devices))
	for i, d := range devices {
		state[i] = &deviceState{dev: d, alive: true}
	}
	units := append([]int(nil), initial...)
	preds := predict(state, units)

	var tr Trace
	for it := 0; it < nIters; it++ {
		step := Step{Iter: it, Units: append([]int(nil), units...)}
		times := make([]float64, len(state))
		var failed, slow []int
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
				step.Makespan = max(step.Makespan, retrySec)
				failed = append(failed, d)
				tr.Events = append(tr.Events, Event{Iter: it, Device: d, Kind: EventDrop,
					Detail: err.Error()})
				continue
			}
			times[d] = t
			step.Makespan = max(step.Makespan, t+retrySec)
			// Anomaly detection against the FPM prediction.
			if pred := preds[d]; pred > 0 {
				relDev := (t - pred) / pred
				if relDev > deviationThreshold {
					st.strikes++
					tr.Events = append(tr.Events, Event{Iter: it, Device: d, Kind: EventAnomaly,
						Detail: fmt.Sprintf("observed %.3gs vs predicted %.3gs (%.0f%% over)", t, pred, relDev*100)})
					if st.strikes >= strikeLimit {
						slow = append(slow, d)
					}
				} else {
					st.strikes = 0
				}
			}
		}

		lost := 0
		for _, d := range failed {
			state[d].alive = false
			lost += units[d]
			tr.Dropped = append(tr.Dropped, d)
		}
		step.Imbalance = imbalance(state, units, times, n)
		if opts.Policy == NoRecovery {
			// The failed share of this and every remaining iteration is
			// abandoned; the survivors plod on with their old shares, and
			// no device is demoted.
			for _, d := range failed {
				tr.LostUnits += units[d] * (nIters - it)
				tr.Events = append(tr.Events, Event{Iter: it, Device: d, Kind: EventLost,
					Detail: fmt.Sprintf("%d units/iteration abandoned for %d iterations", units[d], nIters-it)})
				units[d] = 0
			}
			tr.UnitsProcessed += sum(units)
			slow = nil
		} else {
			// Survivors re-execute the victims' share of this iteration.
			tr.UnitsProcessed += n
		}
		for _, d := range slow {
			// Demote: rescale the model to the observed speed so the
			// re-partition believes the degraded reality.
			st := state[d]
			factor := preds[d] / times[d]
			st.dev.Model = fpm.Scaled{Base: st.dev.Model, Factor: factor}
			st.strikes = 0
			tr.Demoted = append(tr.Demoted, d)
			tr.Events = append(tr.Events, Event{Iter: it, Device: d, Kind: EventDemote,
				Detail: fmt.Sprintf("model rescaled by %.3g after %d strikes", factor, strikeLimit)})
		}

		if len(failed) > 0 || len(slow) > 0 || (step.Imbalance > imbalanceThreshold && it < nIters-1) {
			next, err := repartition(state, units, times, n, opts.Policy)
			if err != nil {
				return tr, fmt.Errorf("resilient: re-partition at iteration %d: %w", it, err)
			}
			// A re-partition that keeps the distribution is not a rebalance.
			if !slices.Equal(next, units) {
				step.Moved = unitsMoved(units, next)
				step.MigrationSeconds = float64(step.Moved) * opts.MigrationCost
				tr.Rebalances++
				tr.Events = append(tr.Events, Event{Iter: it, Device: -1, Kind: EventRepartition,
					Detail: fmt.Sprintf("%s over %d devices, %d units moved", opts.Policy, alive(state), step.Moved)})
			}
			if opts.Policy != NoRecovery {
				if step.RecoverySeconds, err = recoverResidual(oracle, state, next, lost, it); err != nil {
					return tr, fmt.Errorf("resilient: recovery at iteration %d: %w", it, err)
				}
			}
			units = next
			preds = predict(state, units)
		}

		tr.Steps = append(tr.Steps, step)
		tr.TotalSeconds += step.seconds()
	}
	tr.FinalUnits = append([]int(nil), units...)
	tr.Completed = tr.UnitsProcessed == n*nIters
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

// repartition redistributes n units over the live devices per the policy:
// FPM on their models, the proportional rule on this iteration's shares and
// times, or (NoRecovery) the current distribution unchanged.
func repartition(state []*deviceState, units []int, times []float64, n int, policy Policy) ([]int, error) {
	if policy == NoRecovery {
		return units, nil
	}
	var idx, shares []int
	var devs []partition.Device
	var obs, caps []float64
	for i, st := range state {
		if !st.alive {
			continue
		}
		idx = append(idx, i)
		devs = append(devs, st.dev)
		shares = append(shares, units[i])
		obs = append(obs, times[i])
		c := math.Inf(1)
		if mu := st.dev.MaxUnits; mu > 0 {
			c = mu
		}
		caps = append(caps, c)
	}
	if len(idx) == 0 {
		return nil, errors.New("resilient: no surviving devices")
	}
	var next []int
	if policy == Proportional {
		var err error
		if next, err = proportional(shares, obs, n, caps); err != nil {
			return nil, err
		}
	} else {
		res, err := partition.FPM(devs, n, partition.FPMOptions{})
		if err != nil {
			return nil, err
		}
		next = res.Units()
	}
	out := make([]int, len(state))
	for j, u := range next {
		out[idx[j]] = u
	}
	return out, nil
}

// proportional is the dynamic balancer's rule: it splits total units over
// the devices in proportion to the speed each showed on its share,
// units[d]/times[d], within caps (+Inf for an uncapped device). A device
// that ran nothing has no observed speed; it is probed with the average
// apparent speed total/p/hi, hi being the slowest observed time, so it can
// re-enter the distribution. With nothing observed at all, every device
// gets the same speed.
func proportional(units []int, times []float64, total int, caps []float64) ([]int, error) {
	hi := 0.0
	for d, u := range units {
		if u > 0 {
			hi = max(hi, times[d])
		}
	}
	probe := 1.0
	if hi > 0 {
		probe = float64(total) / float64(len(units)) / hi
	}
	speeds := make([]float64, len(units))
	for d, u := range units {
		if u > 0 && times[d] > 0 {
			speeds[d] = float64(u) / times[d]
		} else {
			speeds[d] = probe
		}
	}
	return partition.RoundShares(speeds, total, caps)
}

// imbalance is (max-min)/min of the live devices' times this iteration. A
// live device left idle while there is at least one unit per live device is
// the worst possible imbalance, +Inf: its time is zero.
func imbalance(state []*deviceState, units []int, times []float64, n int) float64 {
	lo, hi := math.Inf(1), 0.0
	live, idle := 0, false
	for d, st := range state {
		if !st.alive {
			continue
		}
		live++
		if units[d] == 0 {
			idle = true
			continue
		}
		lo, hi = min(lo, times[d]), max(hi, times[d])
	}
	switch {
	case idle && n >= live:
		return math.Inf(1)
	case hi == 0:
		return 0
	}
	return hi/lo - 1
}

// recoverResidual re-executes the failed devices' share of the interrupted
// iteration on the survivors, split in proportion to their new assignment
// and rounded as a whole (partition.RoundShares) so the re-executed units sum
// to the lost share, and returns the extra makespan. When a survivor's
// oracle call fails too (e.g. it is itself stalled), its model prediction
// stands in — the charge must not be lost just because the platform is
// having a bad day.
func recoverResidual(oracle faults.Oracle, state []*deviceState, next []int, residual, it int) (float64, error) {
	if residual <= 0 {
		return 0, nil
	}
	// The re-partition gives the failed devices nothing, so none of the
	// residual lands on them.
	shares := make([]float64, len(next))
	caps := make([]float64, len(next))
	for d, u := range next {
		shares[d], caps[d] = float64(u), math.Inf(1)
	}
	extra, err := partition.RoundShares(shares, residual, caps)
	if err != nil {
		return 0, err
	}
	var makespan float64
	for d, u := range extra {
		if u == 0 {
			continue
		}
		t, err := oracle(d, u, it)
		if err != nil || checkTime(t, d) != nil {
			t = fpm.Time(state[d].dev.Model, float64(u))
		}
		makespan = max(makespan, t)
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
