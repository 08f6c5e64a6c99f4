package resilient

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"fpmpart/internal/faults"
	"fpmpart/internal/fpm"
	"fpmpart/internal/partition"
)

// constDevices builds constant-speed devices (units/second) whose oracle is
// exactly the model: pred == observed in the fault-free case.
func constDevices(t testing.TB, speeds ...float64) ([]partition.Device, func(d, u int) float64) {
	t.Helper()
	devs := make([]partition.Device, len(speeds))
	for i, s := range speeds {
		c, err := fpm.NewConstant(s)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = partition.Device{Name: string(rune('A' + i)), Model: c}
	}
	oracle := func(d, u int) float64 { return float64(u) / speeds[d] }
	return devs, oracle
}

// fpmStart is the FPM distribution of n units over devs, the start the
// recovery experiment runs from.
func fpmStart(t testing.TB, devs []partition.Device, n int) []int {
	t.Helper()
	res, err := partition.FPM(devs, n, partition.FPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Units()
}

func injected(t testing.TB, spec string, seed int64, base func(d, u int) float64) faults.Oracle {
	t.Helper()
	sp, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	in, err := faults.NewInjector(sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in.Wrap(base)
}

func TestFaultFreeRunMatchesStaticFPM(t *testing.T) {
	devs, base := constDevices(t, 4, 2, 2)
	tr, err := Run(devs, injected(t, "", 1, base), fpmStart(t, devs, 80), 20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Completed || tr.Rebalances != 0 || tr.Retries != 0 || len(tr.Dropped)+len(tr.Demoted) != 0 {
		t.Fatalf("fault-free run took recovery actions: %+v", tr)
	}
	if tr.UnitsProcessed != 80*20 {
		t.Errorf("units processed = %d, want %d", tr.UnitsProcessed, 80*20)
	}
	// FPM equilibrium: T = 80/(4+2+2) = 10s per iteration, units [40 20 20].
	if !reflect.DeepEqual(tr.FinalUnits, []int{40, 20, 20}) {
		t.Errorf("final units = %v, want [40 20 20]", tr.FinalUnits)
	}
	if math.Abs(tr.TotalSeconds-200) > 1e-9 {
		t.Errorf("total = %v, want 200", tr.TotalSeconds)
	}
}

// TestCrashRecovery is the PR's acceptance scenario: a seeded mid-run crash
// must complete with the correct total units processed, rebalance exactly
// once, and run post-recovery iterations at the fault-free FPM makespan of
// the surviving devices (well within the 25% criterion).
func TestCrashRecovery(t *testing.T) {
	const (
		n      = 80
		nIters = 20
		crash  = 10
	)
	devs, base := constDevices(t, 4, 2, 2)
	oracle := injected(t, "crash:dev=0,iter=10", 7, base)
	tr, err := Run(devs, oracle, fpmStart(t, devs, n), nIters, Options{Policy: FPMRepartition, MigrationCost: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Completed {
		t.Fatal("run did not complete despite recovery")
	}
	if tr.UnitsProcessed != n*nIters {
		t.Errorf("units processed = %d, want %d (no work may be lost)", tr.UnitsProcessed, n*nIters)
	}
	if tr.Rebalances != 1 {
		t.Errorf("rebalances = %d, want exactly 1", tr.Rebalances)
	}
	if !reflect.DeepEqual(tr.Dropped, []int{0}) {
		t.Errorf("dropped = %v, want [0]", tr.Dropped)
	}
	// Fault-free FPM on the survivors (speeds 2+2, n=80): 20s/iteration.
	surv, survOracle := constDevices(t, 2, 2)
	free, err := Run(surv, injected(t, "", 1, survOracle), fpmStart(t, surv, n), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracleMakespan := free.Steps[0].Makespan
	for _, step := range tr.Steps[crash+1:] {
		if step.Makespan > oracleMakespan*1.25 {
			t.Errorf("iteration %d makespan %v exceeds 125%% of the fault-free survivor oracle %v",
				step.Iter, step.Makespan, oracleMakespan)
		}
	}
	// Work conservation: survivors carry all n units after the drop.
	if !reflect.DeepEqual(tr.FinalUnits, []int{0, 40, 40}) {
		t.Errorf("final units = %v, want [0 40 40]", tr.FinalUnits)
	}
	// Total: 10 pre-crash iterations at 10s, the crash iteration (10s run +
	// 40 moved units + 10s residual re-execution), 9 post-crash at 20s.
	want := 10*10.0 + (10 + 40*1e-3 + 10) + 9*20.0
	if math.Abs(tr.TotalSeconds-want) > 1e-9 {
		t.Errorf("total = %v, want %v", tr.TotalSeconds, want)
	}
}

// TestRecoveredResidualSumsToLostShare checks that the survivors re-execute
// exactly the crashed device's share of the interrupted iteration: split
// over [27 27 26], the 20 lost units rounded one survivor at a time would
// come to 7+7+7 = 21.
func TestRecoveredResidualSumsToLostShare(t *testing.T) {
	const crash = 3
	devs, base := constDevices(t, 1, 1, 1, 1)
	inner := injected(t, "crash:dev=0,iter=3", 7, base)
	calls := map[int][]int{} // survivor -> units it ran at the crash iteration
	oracle := func(d, u, it int) (float64, error) {
		if it == crash && d != 0 {
			calls[d] = append(calls[d], u)
		}
		return inner(d, u, it)
	}
	start := fpmStart(t, devs, 80)
	tr, err := Run(devs, oracle, start, 6, Options{Policy: FPMRepartition})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.FinalUnits, []int{0, 27, 27, 26}) {
		t.Fatalf("final units = %v, want [0 27 27 26]", tr.FinalUnits)
	}
	reexecuted := 0
	for d := 1; d < len(devs); d++ {
		if len(calls[d]) != 2 {
			t.Fatalf("survivor %d ran %v at the crash iteration, want its share then its part of the residual", d, calls[d])
		}
		reexecuted += calls[d][1]
	}
	if reexecuted != start[0] {
		t.Errorf("survivors re-executed %d units, want the lost share %d", reexecuted, start[0])
	}
	if tr.UnitsProcessed != 80*6 {
		t.Errorf("units processed = %d, want %d", tr.UnitsProcessed, 80*6)
	}
}

func TestCrashWithoutRecoveryLosesWork(t *testing.T) {
	devs, base := constDevices(t, 4, 2, 2)
	oracle := injected(t, "crash:dev=0,iter=10", 7, base)
	tr, err := Run(devs, oracle, fpmStart(t, devs, 80), 20, Options{Policy: NoRecovery})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Completed {
		t.Error("NoRecovery run claims completion despite a crash")
	}
	if tr.Rebalances != 0 {
		t.Errorf("NoRecovery rebalanced %d times", tr.Rebalances)
	}
	// Device 0 carried 40 units; 10 iterations (10..19) lose them.
	if tr.LostUnits != 40*10 {
		t.Errorf("lost units = %d, want 400", tr.LostUnits)
	}
	if tr.UnitsProcessed != 80*20-400 {
		t.Errorf("units processed = %d, want %d", tr.UnitsProcessed, 80*20-400)
	}
}

func TestProportionalRecovery(t *testing.T) {
	devs, base := constDevices(t, 4, 2, 2)
	oracle := injected(t, "crash:dev=0,iter=5", 7, base)
	tr, err := Run(devs, oracle, fpmStart(t, devs, 80), 12, Options{Policy: Proportional})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Completed || tr.UnitsProcessed != 80*12 {
		t.Fatalf("proportional recovery lost work: %+v", tr)
	}
	if tr.Rebalances != 1 {
		t.Errorf("rebalances = %d, want 1", tr.Rebalances)
	}
	// Equal survivor speeds observed at [20 20] → equal split.
	if !reflect.DeepEqual(tr.FinalUnits, []int{0, 40, 40}) {
		t.Errorf("final units = %v, want [0 40 40]", tr.FinalUnits)
	}
}

// TestProportionalRecoveryWeighsUnitsPerSecond: after an FPM start every
// survivor's iteration time is equal, so a rule weighing survivors by
// 1/time splits them evenly ([0 35 35], 35 s per iteration). Speed is
// units per second: the survivors ran 20 units and 10 units in 10 s each,
// so the split is 2:1, the same [0 47 23] FPM re-partitioning finds.
func TestProportionalRecoveryWeighsUnitsPerSecond(t *testing.T) {
	devs, base := constDevices(t, 4, 2, 1)
	oracle := injected(t, "crash:dev=0,iter=2", 7, base)
	tr, err := Run(devs, oracle, fpmStart(t, devs, 70), 5, Options{Policy: Proportional})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.FinalUnits, []int{0, 47, 23}) {
		t.Errorf("final units = %v, want [0 47 23]", tr.FinalUnits)
	}
	if last := tr.Steps[len(tr.Steps)-1]; math.Abs(last.Makespan-23.5) > 1e-9 {
		t.Errorf("post-crash makespan = %v, want 23.5", last.Makespan)
	}
}

func TestTransientStallRidesOutOnRetries(t *testing.T) {
	devs, base := constDevices(t, 4, 2, 2)
	// Stall shorter than the retry budget: the device recovers in place.
	oracle := injected(t, "stall:dev=1,iter=3,len=2", 7, base)
	tr, err := Run(devs, oracle, fpmStart(t, devs, 80), 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Completed || len(tr.Dropped) != 0 || tr.Rebalances != 0 {
		t.Fatalf("transient stall escalated: %+v", tr)
	}
	if tr.Retries != 2 {
		t.Errorf("retries = %d, want 2 (one per stalled call)", tr.Retries)
	}
	// Backoff is charged to the stalled iteration: retryBackoff, then
	// double it, on top of the device's 10s share, making it the
	// iteration's critical path.
	st := tr.Steps[3]
	if want := retryBackoff + 2*retryBackoff; math.Abs(st.RetrySeconds-want) > 1e-12 {
		t.Errorf("retry seconds = %v, want %v", st.RetrySeconds, want)
	}
	if want := 10 + 3*retryBackoff; math.Abs(st.Makespan-want) > 1e-9 {
		t.Errorf("stalled iteration makespan = %v, want %v", st.Makespan, want)
	}
	if tr.UnitsProcessed != 80*10 {
		t.Errorf("units processed = %d, want %d", tr.UnitsProcessed, 80*10)
	}
}

func TestStallBeyondRetryBudgetDropsDevice(t *testing.T) {
	devs, base := constDevices(t, 4, 2, 2)
	// A 10-call stall outlasts every retry: confirmed failure, device dropped.
	oracle := injected(t, "stall:dev=2,iter=4,len=10", 7, base)
	tr, err := Run(devs, oracle, fpmStart(t, devs, 80), 12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Completed {
		t.Fatal("run did not complete after dropping the stalled device")
	}
	if !reflect.DeepEqual(tr.Dropped, []int{2}) {
		t.Errorf("dropped = %v, want [2]", tr.Dropped)
	}
	if tr.Rebalances != 1 || tr.UnitsProcessed != 80*12 {
		t.Errorf("rebalances = %d, units = %d; want 1, %d", tr.Rebalances, tr.UnitsProcessed, 80*12)
	}
}

func TestSlowdownDetectedAndDemoted(t *testing.T) {
	devs, base := constDevices(t, 4, 2, 2)
	// Device 0 degrades 3x at iteration 4: observed 30s vs predicted 10s.
	oracle := injected(t, "slow:dev=0,iter=4,factor=3", 7, base)
	tr, err := Run(devs, oracle, fpmStart(t, devs, 80), 15, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Completed || tr.UnitsProcessed != 80*15 {
		t.Fatalf("demotion lost work: %+v", tr)
	}
	if !reflect.DeepEqual(tr.Demoted, []int{0}) {
		t.Errorf("demoted = %v, want [0]", tr.Demoted)
	}
	if len(tr.Dropped) != 0 {
		t.Errorf("slowdown should demote, not drop: %v", tr.Dropped)
	}
	if tr.Rebalances != 1 {
		t.Errorf("rebalances = %d, want 1", tr.Rebalances)
	}
	// Demoted model: effective speed 4/3, so FPM gives T = 80/(4/3+2+2) =
	// 15s and units [20 30 30]; the degraded device then matches its
	// prediction exactly and no further anomalies fire.
	if !reflect.DeepEqual(tr.FinalUnits, []int{20, 30, 30}) {
		t.Errorf("final units = %v, want [20 30 30]", tr.FinalUnits)
	}
	last := tr.Steps[len(tr.Steps)-1]
	if math.Abs(last.Makespan-15) > 1e-6 {
		t.Errorf("post-demotion makespan = %v, want 15", last.Makespan)
	}
	anomalies := 0
	for _, e := range tr.Events {
		if e.Kind == EventAnomaly {
			anomalies++
		}
	}
	if anomalies != 3 {
		t.Errorf("anomaly events = %d, want exactly the 3 strikes", anomalies)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	spec := "crash:dev=0,iter=6;slow:dev=1,iter=2,factor=2.5"
	run := func() Trace {
		devs, base := constDevices(t, 4, 2, 2)
		tr, err := Run(devs, injected(t, spec, 99, base), fpmStart(t, devs, 80), 16, Options{MigrationCost: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical (spec, seed) produced different traces:\n%+v\n%+v", a, b)
	}
}

func TestRunValidation(t *testing.T) {
	devs, base := constDevices(t, 1)
	oracle := injected(t, "", 1, base)
	cases := []struct {
		name    string
		devs    []partition.Device
		oracle  faults.Oracle
		initial []int
		nIters  int
		opts    Options
	}{
		{"no devices", nil, oracle, nil, 5, Options{}},
		{"nil oracle", devs, nil, []int{10}, 5, Options{}},
		{"share count", devs, oracle, []int{5, 5}, 5, Options{}},
		{"zero iterations", devs, oracle, []int{10}, 0, Options{}},
		{"negative migration cost", devs, oracle, []int{10}, 5, Options{MigrationCost: -1}},
	}
	for _, c := range cases {
		if _, err := Run(c.devs, c.oracle, c.initial, c.nIters, c.opts); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestAllDevicesCrashIsAnError(t *testing.T) {
	devs, base := constDevices(t, 2, 2)
	oracle := injected(t, "crash:dev=0,iter=3;crash:dev=1,iter=3", 1, base)
	_, err := Run(devs, oracle, fpmStart(t, devs, 40), 10, Options{})
	if err == nil {
		t.Fatal("run with every device crashed should fail")
	}
}

// The tests below drive the proportional policy as the dynamic balancer of
// the paper's related work (reference [14]): no faults, an arbitrary start,
// re-partitioning whenever the observed imbalance exceeds the threshold.

// balance runs a fault-free Proportional run of devices with the given
// speeds from initial.
func balance(t testing.TB, speeds []float64, initial []int, nIters int, cost float64) Trace {
	t.Helper()
	devs, base := constDevices(t, speeds...)
	tr, err := Run(devs, injected(t, "", 1, base), initial, nIters,
		Options{Policy: Proportional, MigrationCost: cost})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func totalMoved(tr Trace) int {
	moved := 0
	for _, st := range tr.Steps {
		moved += st.Moved
	}
	return moved
}

// TestProportionalRunValidation checks the starting distribution and the
// oracle's times under the balancer's policy.
func TestProportionalRunValidation(t *testing.T) {
	devs, base := constDevices(t, 1)
	oracle := injected(t, "", 1, base)
	opts := Options{Policy: Proportional}
	if _, err := Run(devs, nil, []int{1}, 1, opts); err == nil {
		t.Error("nil oracle accepted")
	}
	if _, err := Run(devs, oracle, nil, 1, opts); err == nil {
		t.Error("empty distribution accepted")
	}
	if _, err := Run(devs, oracle, []int{1}, 0, opts); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, err := Run(devs, oracle, []int{-1}, 1, opts); err == nil {
		t.Error("negative units accepted")
	}
	if _, err := Run(devs, oracle, []int{0}, 1, opts); err == nil {
		t.Error("zero total accepted")
	}
	// An invalid time fails the device like a crash: with no survivor to
	// take its work, the run errs.
	bad := func(d, u, it int) (float64, error) { return -1, nil }
	if _, err := Run(devs, bad, []int{5}, 1, opts); err == nil {
		t.Error("invalid oracle time accepted")
	}
}

func TestRunBalancedStartNeverRebalances(t *testing.T) {
	tr := balance(t, []float64{1, 1}, []int{50, 50}, 10, 0)
	if tr.Rebalances != 0 || totalMoved(tr) != 0 {
		t.Errorf("balanced start rebalanced: %+v", tr)
	}
	if math.Abs(tr.TotalSeconds-500) > 1e-9 {
		t.Errorf("total = %v, want 500", tr.TotalSeconds)
	}
	if last := tr.Steps[len(tr.Steps)-1].Imbalance; last > 1e-12 {
		t.Errorf("final imbalance = %v", last)
	}
}

// TestRunConvergesFromBadStart: devices 4x apart, started 50/50, converge
// to the 80/20 equilibrium in one rebalance.
func TestRunConvergesFromBadStart(t *testing.T) {
	tr := balance(t, []float64{4, 1}, []int{50, 50}, 8, 0)
	if tr.Rebalances != 1 {
		t.Errorf("rebalances = %d, want 1", tr.Rebalances)
	}
	if !reflect.DeepEqual(tr.FinalUnits, []int{80, 20}) {
		t.Errorf("final units = %v, want [80 20]", tr.FinalUnits)
	}
	last := tr.Steps[len(tr.Steps)-1]
	if last.Imbalance > 1e-12 {
		t.Errorf("final imbalance = %v", last.Imbalance)
	}
	if tr.Steps[0].Makespan <= last.Makespan {
		t.Error("makespan did not improve")
	}
}

func TestMigrationCostCharged(t *testing.T) {
	free := balance(t, []float64{4, 1}, []int{50, 50}, 5, 0)
	paid := balance(t, []float64{4, 1}, []int{50, 50}, 5, 0.5)
	if totalMoved(paid) != totalMoved(free) || totalMoved(paid) == 0 {
		t.Fatalf("moves differ or are zero: %d vs %d", totalMoved(paid), totalMoved(free))
	}
	wantExtra := 0.5 * float64(totalMoved(paid))
	if math.Abs((paid.TotalSeconds-free.TotalSeconds)-wantExtra) > 1e-9 {
		t.Errorf("migration cost %v not charged (delta %v)", wantExtra, paid.TotalSeconds-free.TotalSeconds)
	}
}

func TestNoRebalanceOnLastIteration(t *testing.T) {
	tr := balance(t, []float64{4, 1}, []int{50, 50}, 1, 0)
	if tr.Rebalances != 0 {
		t.Error("single-iteration run should never rebalance")
	}
	if tr.Steps[0].Imbalance <= imbalanceThreshold {
		t.Errorf("imbalance %v should have been over the threshold", tr.Steps[0].Imbalance)
	}
}

func TestZeroUnitDeviceCanReenter(t *testing.T) {
	tr := balance(t, []float64{1, 1}, []int{100, 0}, 6, 0)
	if tr.FinalUnits[1] == 0 {
		t.Errorf("idle device never received work: %v", tr.FinalUnits)
	}
}

func TestIdleProbeUsesAverageSpeed(t *testing.T) {
	// An idle device has no observed speed; the balancer probes it with the
	// average apparent speed total/p/hi. Equal per-unit costs, start
	// [100, 0]: hi = 100 s, so the probe speed is 100/2/100 = 0.5 against
	// device 0's observed 1.0 — the next distribution must be [67, 33].
	tr := balance(t, []float64{1, 1}, []int{100, 0}, 2, 0)
	if !math.IsInf(tr.Steps[0].Imbalance, 1) {
		t.Errorf("step 0 imbalance = %v, want +Inf (idle device)", tr.Steps[0].Imbalance)
	}
	if next := tr.Steps[1].Units; !reflect.DeepEqual(next, []int{67, 33}) {
		t.Errorf("post-probe units = %v, want [67 33]", next)
	}
}

func TestIdleDeviceOverridesThreshold(t *testing.T) {
	// The two working devices finish together, so their imbalance is 0 and
	// under the threshold; only the idle third device's infinite imbalance
	// can trigger the redistribution that hands it work.
	tr := balance(t, []float64{1, 1, 1}, []int{50, 50, 0}, 3, 0)
	if !math.IsInf(tr.Steps[0].Imbalance, 1) || tr.Steps[0].Moved == 0 {
		t.Fatalf("idle device did not trigger a rebalance: %+v", tr.Steps[0])
	}
	if tr.FinalUnits[2] == 0 {
		t.Errorf("idle device still idle after %d rebalances: %v", tr.Rebalances, tr.FinalUnits)
	}
}

func TestMigrationAccountingIdentities(t *testing.T) {
	const cost = 0.5
	tr := balance(t, []float64{4, 1}, []int{50, 50}, 6, cost)
	if totalMoved(tr) == 0 {
		t.Fatal("expected migrations from the unbalanced start")
	}
	var seconds float64
	rebalances := 0
	for i, st := range tr.Steps {
		if want := float64(st.Moved) * cost; math.Abs(st.MigrationSeconds-want) > 1e-12 {
			t.Errorf("step %d: migration seconds %v, want %v (%d moved)", i, st.MigrationSeconds, want, st.Moved)
		}
		if st.Moved > 0 {
			rebalances++
		}
		seconds += st.Makespan + st.MigrationSeconds + st.RecoverySeconds
	}
	if math.Abs(tr.TotalSeconds-seconds) > 1e-9 {
		t.Errorf("TotalSeconds = %v, Σ(makespan+migration+recovery) = %v", tr.TotalSeconds, seconds)
	}
	if rebalances != tr.Rebalances {
		t.Errorf("Rebalances = %d, steps that moved work = %d", tr.Rebalances, rebalances)
	}
}

// Property: the total unit count is conserved through every step and a long
// run of two constant-speed devices converges.
func TestConservationProperty(t *testing.T) {
	f := func(aRaw, bRaw uint8, split uint8) bool {
		a := 1 / (0.1 + float64(aRaw)/64)
		b := 1 / (0.1 + float64(bRaw)/64)
		total := 200
		s := int(split) % (total - 1)
		tr := balance(t, []float64{a, b}, []int{s + 1, total - s - 1}, 12, 0)
		for _, st := range tr.Steps {
			if sum(st.Units) != total {
				return false
			}
		}
		return tr.Steps[len(tr.Steps)-1].Imbalance < 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestUnchangedRepartitionIsNotARebalance: device 0 runs 10% slower than its
// model says — an imbalance over the threshold every iteration, but not an
// anomaly. Re-solving FPM on the unchanged models returns the same split,
// so no iteration counts a rebalance or pays migration.
func TestUnchangedRepartitionIsNotARebalance(t *testing.T) {
	devs, base := constDevices(t, 4, 2, 2)
	slow := func(d, u int) float64 {
		if d == 0 {
			return 1.1 * base(d, u)
		}
		return base(d, u)
	}
	tr, err := Run(devs, injected(t, "", 1, slow), fpmStart(t, devs, 80), 10, Options{MigrationCost: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Steps[0].Imbalance-0.1) > 1e-9 {
		t.Errorf("imbalance = %v, want 0.1", tr.Steps[0].Imbalance)
	}
	if tr.Rebalances != 0 || totalMoved(tr) != 0 || math.Abs(tr.TotalSeconds-10*11) > 1e-9 {
		t.Errorf("unchanged FPM split counted: rebalances %d, moved %d, total %v",
			tr.Rebalances, totalMoved(tr), tr.TotalSeconds)
	}
	// The proportional rule does move work for the same imbalance.
	prop, err := Run(devs, injected(t, "", 1, slow), fpmStart(t, devs, 80), 10, Options{Policy: Proportional})
	if err != nil {
		t.Fatal(err)
	}
	if prop.Rebalances == 0 {
		t.Error("proportional policy ignored a 10% imbalance")
	}
}

// TestFailureAndDemotionShareOneRepartition: device 1's third strike lands
// in the iteration device 0 crashes; the two trigger one re-partition.
func TestFailureAndDemotionShareOneRepartition(t *testing.T) {
	devs, base := constDevices(t, 4, 2, 2)
	oracle := injected(t, "crash:dev=0,iter=6;slow:dev=1,iter=4,factor=3", 1, base)
	tr, err := Run(devs, oracle, fpmStart(t, devs, 80), 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Dropped, []int{0}) || !reflect.DeepEqual(tr.Demoted, []int{1}) {
		t.Fatalf("dropped %v, demoted %v; want [0], [1]", tr.Dropped, tr.Demoted)
	}
	if tr.Rebalances != 1 || tr.Steps[6].Moved == 0 {
		t.Errorf("rebalances = %d (moved %d at the crash), want one re-partition", tr.Rebalances, tr.Steps[6].Moved)
	}
	// Survivors: device 1 demoted to 2/3 units/s, device 2 at 2: T = 80/(8/3)
	// = 30 s, units [0 20 60].
	if !reflect.DeepEqual(tr.FinalUnits, []int{0, 20, 60}) {
		t.Errorf("final units = %v, want [0 20 60]", tr.FinalUnits)
	}
}

// FuzzRun drives the loop with arbitrary fault specs, seeds and policies on
// a small constant-speed fleet and checks its bookkeeping.
func FuzzRun(f *testing.F) {
	f.Add("", int64(1), uint8(0), uint8(80), uint8(10), uint8(4), uint8(2), uint8(2))
	f.Add("crash:dev=0,iter=3", int64(7), uint8(1), uint8(70), uint8(8), uint8(4), uint8(2), uint8(1))
	f.Add("crash:dev=0,iter=2;crash:dev=1,iter=4", int64(3), uint8(2), uint8(30), uint8(9), uint8(1), uint8(3), uint8(5))
	f.Add("stall:dev=1,iter=1;slow:dev=2,iter=0", int64(5), uint8(1), uint8(2), uint8(12), uint8(7), uint8(1), uint8(1))
	f.Add("slow:dev=0,iter=1,factor=3;stall:dev=2,iter=2,len=9", int64(9), uint8(0), uint8(40), uint8(12), uint8(2), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, spec string, seed int64, policy, nRaw, itersRaw, s0, s1, s2 uint8) {
		sp, err := faults.ParseSpec(spec)
		if err != nil {
			return
		}
		in, err := faults.NewInjector(sp, seed)
		if err != nil {
			return
		}
		n, nIters := 1+int(nRaw)%96, 1+int(itersRaw)%24
		devs, base := constDevices(t, 1+float64(s0%8), 1+float64(s1%8), 1+float64(s2%8))
		pol := Policy(policy % 3)
		tr, err := Run(devs, in.Wrap(base), fpmStart(t, devs, n), nIters, Options{Policy: pol, MigrationCost: 0.01})
		if err != nil {
			if len(tr.Dropped) != len(devs) {
				t.Fatalf("%s: run failed with %d of %d devices dropped: %v", pol, len(tr.Dropped), len(devs), err)
			}
			return
		}
		if tr.UnitsProcessed+tr.LostUnits != n*nIters {
			t.Errorf("processed %d + lost %d != %d", tr.UnitsProcessed, tr.LostUnits, n*nIters)
		}
		if tr.Completed != (tr.LostUnits == 0) {
			t.Errorf("completed = %v with %d units lost", tr.Completed, tr.LostUnits)
		}
		// Every step runs n units, less what NoRecovery abandoned before it.
		abandoned := make([]int, nIters+1)
		for _, e := range tr.Events {
			if e.Kind == EventLost {
				abandoned[e.Iter+1] += tr.Steps[e.Iter].Units[e.Device]
			}
		}
		for i, st := range tr.Steps {
			abandoned[i+1] += abandoned[i]
			if got := sum(st.Units); got != n-abandoned[i] {
				t.Fatalf("%s: step %d runs %d units, want %d - %d abandoned", pol, i, got, n, abandoned[i])
			}
		}
	})
}
